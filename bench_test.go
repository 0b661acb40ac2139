// Package vbuscluster's top-level benchmarks regenerate every table and
// figure-level claim of the paper (see DESIGN.md §5 for the index):
//
//	BenchmarkTable1MM          — Table 1, MM speedups (sizes × nodes)
//	BenchmarkTable2MM/SWIM/CFFT — Table 2, comm time by granularity
//	BenchmarkSKWPBandwidth     — §2.1, SKWP vs conventional pipelining
//	BenchmarkLatencyVsEthernet — §2.1, V-Bus vs Fast Ethernet latency
//	BenchmarkBroadcast         — §2.1, virtual bus vs software trees
//
// and time the compile path the repository benchmark's compile_cold
// workload measures: BenchmarkCompile24 (its 24 configs), and the three
// passes that dominated it — BenchmarkDetectParallel,
// BenchmarkEstimateCommCost, BenchmarkRaceCheck — and one op of its
// Full-mode workloads, BenchmarkRunFull (mm_full and swim_full). The
// same swim_full run as a vbserve job stream, BenchmarkServeFull, and
// on a fresh compilation every time, BenchmarkOneShotFull, bracket how
// much recycling a plan's slave frames saves. BenchmarkOneShotTiming1024
// is a compile plus the first run of swim_scale's plan.
//
// Virtual-time results are attached as custom metrics (speedup,
// comm-seconds, ratios); wall-clock ns/op only measures the simulator.
package vbuscluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vbuscluster/internal/analysis"
	"vbuscluster/internal/bench"
	"vbuscluster/internal/cluster"
	"vbuscluster/internal/core"
	"vbuscluster/internal/f77"
	"vbuscluster/internal/fabric"
	"vbuscluster/internal/jobs"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/nic"
	"vbuscluster/internal/postpass"
	"vbuscluster/internal/sim"
)

// Paper-scale sizes keep even the 1024² MM tractable because the
// harness runs in timing mode (closed-form compute charging).
var table1Sizes = []int{256, 512, 1024}

func BenchmarkTable1MM(b *testing.B) {
	for _, size := range table1Sizes {
		for _, procs := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("n=%d/procs=%d", size, procs), func(b *testing.B) {
				var speedup float64
				for i := 0; i < b.N; i++ {
					rows, err := bench.Table1([]int{size}, []int{procs}, lmad.Fine, bench.Env{})
					if err != nil {
						b.Fatal(err)
					}
					speedup = rows[0].Speedup
				}
				b.ReportMetric(speedup, "speedup")
			})
		}
	}
}

func benchTable2(b *testing.B, name, src string) {
	for _, grain := range []lmad.Grain{lmad.Fine, lmad.Middle, lmad.Coarse} {
		b.Run(grain.String(), func(b *testing.B) {
			var comm sim.Time
			for i := 0; i < b.N; i++ {
				c, err := core.Compile(src, core.Options{NumProcs: 4, Grain: grain})
				if err != nil {
					b.Fatal(err)
				}
				res, err := c.RunParallel(core.Timing)
				if err != nil {
					b.Fatal(err)
				}
				comm = res.Report.TotalXferTime()
			}
			b.ReportMetric(comm.Seconds(), "comm-s")
		})
	}
	_ = name
}

func BenchmarkTable2MM(b *testing.B)   { benchTable2(b, "MM", bench.MMSource(1024)) }
func BenchmarkTable2SWIM(b *testing.B) { benchTable2(b, "SWIM", bench.SwimSource(512, 512)) }
func BenchmarkTable2CFFT(b *testing.B) { benchTable2(b, "CFFT2INIT", bench.CFFTSource(11)) }

func BenchmarkSKWPBandwidth(b *testing.B) {
	cfg := nic.DefaultVBusConfig()
	for _, mode := range []fabric.PipelineMode{fabric.Conventional, fabric.Wave, fabric.SKWP} {
		b.Run(mode.String(), func(b *testing.B) {
			var bw float64
			for i := 0; i < b.N; i++ {
				p, err := fabric.NewPath(fabric.PathConfig{
					Mode: mode, Lines: cfg.Lines, Margin: cfg.Margin,
					Sampler: cfg.Sampler, Hops: 3, RouterLatency: cfg.RouterLatency,
				})
				if err != nil {
					b.Fatal(err)
				}
				bw = p.EffectiveBandwidth(1 << 16)
			}
			b.ReportMetric(bw/1e6, "MB/s")
		})
	}
}

func BenchmarkLatencyVsEthernet(b *testing.B) {
	vbus, err := cluster.ParamsForFabric("vbus")
	if err != nil {
		b.Fatal(err)
	}
	eth, err := cluster.ParamsForFabric("ethernet")
	if err != nil {
		b.Fatal(err)
	}
	vk, ek := vbus.CommCost(), eth.CommCost()
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = float64(ek.Msg(8, 1)) / float64(vk.Msg(8, 1))
	}
	b.ReportMetric(vk.Msg(8, 1).Micros(), "vbus-us")
	b.ReportMetric(ek.Msg(8, 1).Micros(), "ethernet-us")
	b.ReportMetric(ratio, "ratio")
}

func BenchmarkBroadcast(b *testing.B) {
	for _, bytes := range []int{4096, 65536, 1 << 20} {
		b.Run(fmt.Sprintf("bytes=%d", bytes), func(b *testing.B) {
			var vbusT, treeT sim.Time
			for i := 0; i < b.N; i++ {
				res, err := bench.RunMicro()
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range res.Broadcast {
					if p.Bytes == bytes {
						vbusT, treeT = p.VBus, p.TreeP2P
					}
				}
			}
			b.ReportMetric(vbusT.Micros(), "vbus-us")
			b.ReportMetric(treeT.Micros(), "tree-us")
			b.ReportMetric(float64(treeT)/float64(vbusT), "ratio")
		})
	}
}

// avpgAblationSrc mirrors the paper's Figure 7: array B is written in
// the first loop and never used again (its collect is redundant), and
// array A propagates across an intervening loop before its next use.
const avpgAblationSrc = `
      PROGRAM FIG7
      INTEGER N
      PARAMETER (N = 4096)
      REAL A(N), B(N), C(N)
      INTEGER I
      DO I = 1, N
        A(I) = REAL(I)
        B(I) = REAL(2*I)
      ENDDO
      DO I = 1, N
        C(I) = REAL(I) * 0.5
      ENDDO
      DO I = 1, N
        C(I) = C(I) + A(I)
      ENDDO
      PRINT *, C(1)
      END
`

// BenchmarkAblationAVPG quantifies §5.2's redundant-communication
// elimination: comm time of the Figure-7 program with the AVPG active
// versus the naive every-boundary scheme (approximated by the extra
// bytes the eliminated collects would have moved).
func BenchmarkAblationAVPG(b *testing.B) {
	var elim int
	var comm sim.Time
	for i := 0; i < b.N; i++ {
		c, err := core.Compile(avpgAblationSrc, core.Options{NumProcs: 4, Grain: lmad.Coarse, NoLiveOut: true})
		if err != nil {
			b.Fatal(err)
		}
		elim = c.SPMD.EliminatedCollects + c.SPMD.EliminatedScatters
		res, err := c.RunParallel(core.Timing)
		if err != nil {
			b.Fatal(err)
		}
		comm = res.Report.TotalXferTime()
	}
	b.ReportMetric(float64(elim), "eliminated-ops")
	b.ReportMetric(comm.Seconds(), "comm-s")
	if elim == 0 {
		b.Fatal("AVPG eliminated nothing on the Figure-7 program")
	}
}

// BenchmarkAblationOneSidedVsTwoSided quantifies §2.2's case for
// MPI_PUT/MPI_GET: the same contiguous scatter/collect plans issued as
// one-sided DMA transfers versus MPI-1 SEND/RECEIVE pairs with their
// pack/unpack copies and receiver involvement, priced in Timing mode.
// The swim_full rows run swim_full's plan (SWIM 192², 4 ranks, fine)
// in Full mode under each scheme: the host time, bytes and allocations
// the simulator spends, not the modelled cost.
func BenchmarkAblationOneSidedVsTwoSided(b *testing.B) {
	src := `
      PROGRAM P
      INTEGER N
      PARAMETER (N = 65536)
      REAL A(N), B(N)
      INTEGER I
      DO I = 1, N
        B(I) = REAL(I)
      ENDDO
      DO I = 1, N
        A(I) = B(I) * 2.0
      ENDDO
      PRINT *, A(1)
      END
`
	for _, twoSided := range []bool{false, true} {
		name := "one-sided"
		if twoSided {
			name = "two-sided"
		}
		b.Run(name, func(b *testing.B) {
			var comm sim.Time
			for i := 0; i < b.N; i++ {
				c, err := core.Compile(src, core.Options{
					NumProcs: 4, Grain: lmad.Coarse, TwoSided: twoSided,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := c.RunParallel(core.Timing)
				if err != nil {
					b.Fatal(err)
				}
				comm = res.Report.TotalXferTime()
			}
			b.ReportMetric(comm.Seconds()*1e3, "comm-ms")
		})
		b.Run("swim_full/"+name, func(b *testing.B) {
			c, err := core.Compile(bench.SwimSource(192, 192), core.Options{
				NumProcs: 4, Grain: lmad.Fine, TwoSided: twoSided,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.RunParallelWith(core.Full, core.RunParams{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPushVsPull compares the master-driven PUT scatter
// against the slave-driven GET scatter (§2.2: either end can drive a
// one-sided transfer; pulling overlaps the slaves' transfers).
func BenchmarkAblationPushVsPull(b *testing.B) {
	for _, pull := range []bool{false, true} {
		name := "push-put"
		if pull {
			name = "pull-get"
		}
		b.Run(name, func(b *testing.B) {
			var elapsed sim.Time
			for i := 0; i < b.N; i++ {
				c, err := core.Compile(bench.MMSource(256), core.Options{
					NumProcs: 4, Grain: lmad.Coarse, PullScatter: pull,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := c.RunParallel(core.Timing)
				if err != nil {
					b.Fatal(err)
				}
				elapsed = res.Elapsed
			}
			b.ReportMetric(elapsed.Seconds(), "elapsed-s")
		})
	}
}

// BenchmarkAblationVBusVsEthernet re-runs the Table 2 MM experiment on
// a cluster whose NIC is the Fast Ethernet reference card instead of
// the V-Bus card — the whole-system version of the §2 comparison.
func BenchmarkAblationVBusVsEthernet(b *testing.B) {
	run := func(b *testing.B, card nic.Card) sim.Time {
		params := cluster.DefaultParams()
		params.Fabric = card
		c, err := core.Compile(bench.MMSource(256), core.Options{
			NumProcs: 4, Grain: lmad.Coarse, Params: &params,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := c.RunParallel(core.Timing)
		if err != nil {
			b.Fatal(err)
		}
		return res.Report.TotalXferTime()
	}
	b.Run("vbus", func(b *testing.B) {
		var t sim.Time
		for i := 0; i < b.N; i++ {
			card, _ := nic.NewVBus(nic.DefaultVBusConfig())
			t = run(b, card)
		}
		b.ReportMetric(t.Seconds(), "comm-s")
	})
	b.Run("fast-ethernet", func(b *testing.B) {
		var t sim.Time
		for i := 0; i < b.N; i++ {
			card, _ := nic.NewEthernet(nic.DefaultEthernetConfig())
			t = run(b, card)
		}
		b.ReportMetric(t.Seconds(), "comm-s")
	})
}

// compileCase is one entry of the repository benchmark's compile_cold
// mix rebuilt from the bench package's kernels.
type compileCase struct {
	src  string
	opts core.Options
}

// compileKernels are the three programs compile_cold compiles.
func compileKernels() []struct{ name, src string } {
	return []struct{ name, src string }{
		{"mm1024", bench.MMSource(1024)},
		{"swim512", bench.SwimSource(512, 512)},
		{"cfft11", bench.CFFTSource(11)},
	}
}

// compile24 is {MM 1024², SWIM 512², CFFT M=11} × {4, 64 ranks} ×
// {fine, middle, coarse, AutoGrain}.
func compile24() []compileCase {
	var out []compileCase
	for _, k := range compileKernels() {
		for _, procs := range []int{4, 64} {
			for _, g := range []lmad.Grain{lmad.Fine, lmad.Middle, lmad.Coarse} {
				out = append(out, compileCase{k.src, core.Options{NumProcs: procs, Grain: g}})
			}
			out = append(out, compileCase{k.src, core.Options{NumProcs: procs, AutoGrain: true}})
		}
	}
	return out
}

// BenchmarkCompile24 is one round of the compile_cold workload: all 24
// configs compiled once per iteration. After the timed rounds, one
// traced round attributes a round's time to the passes that dominate
// it (parse-ns/op, parallel-detect-ns/op, partition-ns/op,
// grain-opt-ns/op, grain-select-ns/op).
func BenchmarkCompile24(b *testing.B) {
	cfgs := compile24()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cfgs {
			if _, err := core.Compile(c.src, c.opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	wall := map[string]time.Duration{}
	for _, c := range cfgs {
		opts := c.opts
		opts.Trace = &core.PassTrace{}
		if _, err := core.Compile(c.src, opts); err != nil {
			b.Fatal(err)
		}
		for _, r := range opts.Trace.Records {
			wall[r.Name] += r.Wall
		}
	}
	for _, pass := range []string{"parse", "parallel-detect", "partition", "grain-opt", "grain-select"} {
		b.ReportMetric(float64(wall[pass].Nanoseconds()), pass+"-ns/op")
	}
}

// BenchmarkRunFull is one op of the repository benchmark's mm_full
// (MM 96², 4 ranks, coarse) and swim_full (SWIM 192², 4 ranks, fine)
// workloads, and SWIM at the paper's 512² on 4 ranks at each grain: the
// plan is compiled in set-up, and each iteration is one parallel
// Full-mode run, so any op can be profiled alone:
//
//	go test -run '^$' -bench 'RunFull/mm_full' -cpuprofile cpu.out .
//
// gc/op is the garbage collections the ops caused, per op. The swim512
// rows take seconds an op; run them with -benchtime 1x.
func BenchmarkRunFull(b *testing.B) {
	for _, w := range []struct {
		name  string
		src   string
		grain lmad.Grain
	}{
		{"mm_full", bench.MMSource(96), lmad.Coarse},
		{"swim_full", bench.SwimSource(192, 192), lmad.Fine},
		{"swim512/fine", bench.SwimSource(512, 512), lmad.Fine},
		{"swim512/middle", bench.SwimSource(512, 512), lmad.Middle},
		{"swim512/coarse", bench.SwimSource(512, 512), lmad.Coarse},
	} {
		b.Run(w.name, func(b *testing.B) {
			c, err := core.Compile(w.src, core.Options{NumProcs: 4, Grain: w.grain})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.RunParallelWith(core.Full, core.RunParams{}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gc/op")
		})
	}
}

// BenchmarkServeFull streams swim_full's program (SWIM 192², 4 ranks,
// fine) as Full-mode jobs through an in-process vbserve: two
// closed-loop clients POST /v1/jobs?wait=1 to a server with two
// clusters, and after a warm-up job every job is a plan-cache hit, so
// successive runs of one compiled plan recycle its slaves' frames
// (DESIGN §23). ns/op is wall time per job over both clients; job-ms
// is the median job latency.
func BenchmarkServeFull(b *testing.B) {
	srv := jobs.New(jobs.Config{Clusters: 2})
	defer srv.Drain(context.Background())
	handler := srv.Handler()
	body, err := json.Marshal(jobs.Spec{Source: bench.SwimSource(192, 192), Procs: 4, Grain: "fine", Mode: "full"})
	if err != nil {
		b.Fatal(err)
	}
	submit := func() (time.Duration, error) {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		handler.ServeHTTP(rec, req)
		d := time.Since(t0)
		var v jobs.View
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil || v.State != jobs.StateDone {
			return d, fmt.Errorf("job: HTTP %d: %s", rec.Code, rec.Body.String())
		}
		return d, nil
	}
	if _, err := submit(); err != nil {
		b.Fatal(err)
	}
	lat := make([]time.Duration, b.N)
	var next atomic.Int64
	var wg sync.WaitGroup
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for client := 0; client < 2; client++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := next.Add(1) - 1; k < int64(b.N); k = next.Add(1) - 1 {
				d, err := submit()
				if err != nil {
					b.Error(err)
					return
				}
				lat[k] = d
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	runtime.ReadMemStats(&after)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[b.N/2])/1e6, "job-ms")
	b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gc/op")
}

// BenchmarkOneShotFull is swim_full's run on a plan compiled just
// before it (outside the timer), as in a new vbrun process or on a
// plan-cache miss: no run of the plan came before, so no slave frame
// is recycled.
func BenchmarkOneShotFull(b *testing.B) {
	src := bench.SwimSource(192, 192)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := core.Compile(src, core.Options{NumProcs: 4, Grain: lmad.Fine})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := c.RunParallelWith(core.Full, core.RunParams{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gc/op")
}

// BenchmarkOneShotTiming1024 is a compile plus the first Timing-mode
// run of SWIM 1024² on 1024 ranks at coarse grain, as one vbrun
// invocation or one BENCH_scale.json row pays it: the run builds the
// plan's rank classes and transfer plans on first use, which the
// warm runs of swim_scale never do.
func BenchmarkOneShotTiming1024(b *testing.B) {
	src := bench.SwimSource(1024, 1024)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := core.Compile(src, core.Options{NumProcs: 1024, Grain: lmad.Coarse})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.RunParallel(core.Timing); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gc/op")
}

// analyzed parses src and runs the front end, as core.Compile does
// before the postpass.
func analyzed(b *testing.B, src string) *f77.Program {
	b.Helper()
	prog, err := f77.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	if err := analysis.FrontEnd(prog); err != nil {
		b.Fatal(err)
	}
	return prog
}

// BenchmarkDetectParallel times the parallel-detect pass (reduction
// recognition, privatization and the Access Region Test on every loop)
// alone. Each iteration clears the verdicts first: a loop already
// marked parallel is skipped as if a directive had marked it.
func BenchmarkDetectParallel(b *testing.B) {
	for _, k := range compileKernels() {
		b.Run(k.name, func(b *testing.B) {
			main := analyzed(b, k.src).Main()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f77.WalkStmts(main.Body, func(s f77.Stmt) bool {
					if l, ok := s.(*f77.DoLoop); ok {
						l.Parallel = false
					}
					return true
				})
				analysis.DetectParallel(main)
			}
		})
	}
}

// translate64 runs the postpass for 64 ranks and returns the plan and
// the wall time of its grain-opt stage (the §5.6 race check).
func translate64(b *testing.B, prog *f77.Program, g lmad.Grain) (*postpass.Program, time.Duration) {
	b.Helper()
	var raceCheck time.Duration
	pp, err := postpass.TranslateStaged(prog, postpass.Options{NumProcs: 64, Grain: g, LiveOutAll: true},
		func(stage string, wall time.Duration, _ string, _ *postpass.Program) {
			if stage == postpass.StageGrainOpt {
				raceCheck = wall
			}
		})
	if err != nil {
		b.Fatal(err)
	}
	return pp, raceCheck
}

// BenchmarkEstimateCommCost times the static estimator AutoGrain calls
// once per candidate grain, on 64-rank plans. Each iteration prices a
// fresh translation, outside the timer, as AutoGrain does: a plan's
// rank classes are memoised on first use, so pricing one translation
// twice would time only the second, warm walk.
func BenchmarkEstimateCommCost(b *testing.B) {
	params := cluster.DefaultParams()
	params.MeshWidth, params.MeshHeight = core.MeshFor(64)
	for _, k := range compileKernels() {
		prog := analyzed(b, k.src)
		for _, g := range []lmad.Grain{lmad.Fine, lmad.Middle, lmad.Coarse} {
			b.Run(fmt.Sprintf("%s/%s", k.name, g), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				var cost sim.Time
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					pp, _ := translate64(b, prog, g)
					b.StartTimer()
					cost = postpass.EstimateCommCost(pp, params)
				}
				b.ReportMetric(cost.Seconds(), "comm-s")
			})
		}
	}
}

// BenchmarkRaceCheck times the postpass at the two approximate grains
// on 64 ranks and reports the share its grain-opt stage — the §5.6
// race check — takes as race-check-ns/op.
func BenchmarkRaceCheck(b *testing.B) {
	for _, k := range compileKernels() {
		prog := analyzed(b, k.src)
		for _, g := range []lmad.Grain{lmad.Middle, lmad.Coarse} {
			b.Run(fmt.Sprintf("%s/%s", k.name, g), func(b *testing.B) {
				b.ReportAllocs()
				var total time.Duration
				for i := 0; i < b.N; i++ {
					_, d := translate64(b, prog, g)
					total += d
				}
				b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "race-check-ns/op")
			})
		}
	}
}

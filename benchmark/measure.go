package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vbuscluster/internal/cluster"
	"vbuscluster/internal/core"
	"vbuscluster/internal/jobs"
	"vbuscluster/internal/trace"
)

// phase is what one measured stretch of ops produced.
type phase struct {
	latMs    []float64 // ascending
	failed   int
	firstErr error
	wall     time.Duration
}

func (p phase) ops() int { return len(p.latMs) }

// merge folds a later stretch of the same kind into p.
func (p *phase) merge(q phase) {
	p.latMs = append(p.latMs, q.latMs...)
	sort.Float64s(p.latMs)
	p.failed += q.failed
	p.firstErr = errors.Join(p.firstErr, q.firstErr)
	p.wall += q.wall
}

// measure drives inst.op from its closed-loop clients, drawing op
// indices from inst.next, from one multiple of inst.batch until d has
// passed and another multiple is reached. A failed op still counts as
// attempted.
func measure(inst *instance, d time.Duration, tr *tracer) phase {
	next := &inst.next
	var (
		mu   sync.Mutex
		ph   phase
		wg   sync.WaitGroup
		stop atomic.Bool
	)
	batch := int64(inst.batch)
	first := (next.Load() + batch - 1) / batch * batch
	next.Store(first)
	start := time.Now()
	for c := 0; c < inst.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			for !stop.Load() {
				k := next.Add(1) - 1
				if k > first && k%batch == 0 && time.Since(start) >= d {
					stop.Store(true) // index k stays unused, so no later phase repeats an input
					break
				}
				took, err := inst.op(int(k), tr)
				lat = append(lat, float64(took)/float64(time.Millisecond))
				if err != nil {
					mu.Lock()
					ph.failed++
					if ph.firstErr == nil {
						ph.firstErr = err
					}
					mu.Unlock()
				}
			}
			mu.Lock()
			ph.latMs = append(ph.latMs, lat...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	sort.Float64s(ph.latMs)
	return ph
}

// runtimeSnap is the process-wide runtime state read before and after
// a measured phase.
type runtimeSnap struct {
	mem       runtime.MemStats
	mutexWait float64
	sched     *metrics.Float64Histogram
}

func snapRuntime() runtimeSnap {
	s := []metrics.Sample{{Name: "/sync/mutex/wait/total:seconds"}, {Name: "/sched/latencies:seconds"}}
	metrics.Read(s)
	var snap runtimeSnap
	if s[0].Value.Kind() == metrics.KindFloat64 {
		snap.mutexWait = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[1].Value.Float64Histogram()
		snap.sched = &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}
	}
	runtime.ReadMemStats(&snap.mem)
	return snap
}

// schedLatencyP90Ms is the 90th percentile of the scheduling latencies
// added between two snapshots (upper bucket edge), 0 if none.
func schedLatencyP90Ms(before, after runtimeSnap) float64 {
	if before.sched == nil || after.sched == nil {
		return 0
	}
	var total uint64
	delta := make([]uint64, len(after.sched.Counts))
	for i := range delta {
		delta[i] = after.sched.Counts[i] - before.sched.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	var seen uint64
	for i, n := range delta {
		seen += n
		if float64(seen) >= 0.9*float64(total) {
			edge := after.sched.Buckets[i+1]
			if edge > 1e6 { // the last bucket is open-ended
				edge = after.sched.Buckets[i]
			}
			return edge * 1e3
		}
	}
	return 0
}

// peakRSSMB reads the process's high-water resident set. Each workload
// runs in a process of its own, so the mark belongs to that workload.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0 // not Linux: reported as 0, never gated
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// exactCounts compiles every plan of the workload's fixed set and runs
// it once in timing mode with a recorder, summing the counts that must
// be identical between any two commits that do not change the model.
func exactCounts(plans []plan) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, p := range plans {
		c, err := compile(p)
		if err != nil {
			return nil, err
		}
		sum["postpass.regions"] += float64(len(c.SPMD.Regions))
		for _, r := range c.SPMD.Regions {
			if r.Par != nil {
				sum["postpass.comm_ops_planned"] += float64(len(r.Par.Scatters) + len(r.Par.Collects))
			}
		}
		rec := trace.New()
		res, err := c.RunParallelWith(core.Timing, core.RunParams{Recorder: rec})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.label, err)
		}
		sum["mpi.comm_ops"] += float64(res.Report.TotalCommOps())
		sum["mpi.comm_bytes"] += float64(res.Report.TotalCommBytes())
		sum["mpi.comm_virtual_ms"] += res.Report.TotalCommTime().Seconds() * 1e3
		sum["sim.virtual_elapsed_ms"] += res.Elapsed.Seconds() * 1e3
		sum["trace.events"] += float64(rec.Len())
	}
	return sum, nil
}

// differential makes the calls whose differences isolate a layer, all
// on one plan: compile with pass records; a timing run (no compute, no
// payload); in full-mode workloads a full run and a sequential full run
// (evaluator with no mpi at all); a run with a fresh recorder; and a
// bare cluster.New. It runs after the measured ops, on one goroutine,
// so MemStats deltas and timings are not mixed with a second client's.
func differential(tr *tracer, op int, inst *instance, p plan) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, _, err := tracedCompile(tr, op, p)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	tr.observe("core.compile_alloc_kb", float64(after.TotalAlloc-before.TotalAlloc)/1024)

	run := func(mode core.Mode, rp core.RunParams) func() error {
		return func() error {
			t0 := time.Now()
			res, err := c.RunParallelWith(mode, rp)
			if err == nil && mode == core.Timing && rp.Recorder == nil && res.Report.TotalCommOps() > 0 {
				// Host time per simulated comm op with neither compile nor
				// compute in it: what events_per_sec meant to be.
				tr.observe("mpi.host_ns_per_comm_op", float64(time.Since(t0).Nanoseconds())/float64(res.Report.TotalCommOps()))
			}
			return err
		}
	}
	params := cluster.DefaultParams()
	if params.MeshWidth*params.MeshHeight < p.opts.NumProcs {
		params.MeshWidth, params.MeshHeight = core.MeshFor(p.opts.NumProcs)
	}
	type step struct {
		span string
		call func() error
	}
	steps := []step{{"interp.run_timing", run(core.Timing, core.RunParams{})}}
	if inst.mode == core.Full {
		steps = append(steps,
			step{"interp.run_full", run(core.Full, core.RunParams{})},
			step{"interp.seq_full", func() error { _, err := c.RunSequential(core.Full); return err }})
	}
	steps = append(steps,
		step{"trace.run_recorded", run(inst.mode, core.RunParams{Recorder: trace.New()})},
		step{"cluster.new", func() error { _, err := cluster.New(p.opts.NumProcs, params); return err }})
	for _, st := range steps {
		t0 := time.Now()
		err := st.call()
		tr.add(st.span, -1, op, t0, time.Since(t0))
		if err != nil {
			return fmt.Errorf("%s %s: %w", st.span, p.label, err)
		}
	}
	if inst.server != nil {
		spec, err := inst.server.NormalizeSpec(jobs.Spec{Source: p.src})
		if err != nil {
			return err
		}
		const reps = 64
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			planKeySink = jobs.PlanKey(spec)
		}
		tr.observe("jobs.plankey_us", float64(time.Since(t0))/float64(time.Microsecond)/reps)
	}
	return nil
}

// planKeySink keeps the timed PlanKey calls from being optimised away.
var planKeySink string

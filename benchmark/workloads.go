package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"time"

	"vbuscluster/internal/cluster"
	"vbuscluster/internal/core"
	"vbuscluster/internal/jobs"
)

// workload is one set of inputs the benchmark runs. why is recorded in
// BENCHMARK.json and the README.
type workload struct {
	name, why string
	setup     func(seed uint64, g *golden) (*instance, error)
}

// instance is a workload after set-up: everything compiled, reference
// outputs computed, goldens verified, caches warm.
type instance struct {
	// clients is the number of closed-loop client goroutines.
	clients int
	// batch keeps the op mix exact: the measured phase stops only at a
	// multiple of batch ops.
	batch int
	// mode is the fidelity of the workload's runs.
	mode core.Mode
	// plans is the fixed set the exact counts and the differential
	// calls of the traced pass are taken over, whatever the seed.
	plans []plan
	// op runs measured op k, checks its outputs, and returns the time
	// the program took. tr is nil when tracing is off.
	op func(k int, tr *tracer) (time.Duration, error)
	// next is the index of the next measured op. Indices are never
	// reused while the instance lives, so serve_miss never repeats a key.
	next atomic.Int64
	// server is the in-process service of the serve workloads.
	server *jobs.Server
	close  func()
}

var workloads = []workload{
	{"mm_full", "MM 96x96, 4 ranks, coarse, full mode: the tree-walking evaluator does nearly all the work, so interp changes show here and mpi/compile changes must not",
		runWorkload(newPlan(mm, 96, 4, "coarse"), core.Full)},
	{"swim_full", "SWIM 192x192, 4 ranks, fine, full mode: the same evaluator on 2-deep stencil nests, ten arrays, intrinsics and 5292 small transfers with real payload copies",
		runWorkload(newPlan(swim, 192, 4, "fine"), core.Full)},
	{"swim_scale", "SWIM 1024x1024, 1024 ranks, coarse, timing mode: compute is skipped; time goes to rank goroutines on World.mu, the worker pool, cluster accounting and GC",
		runWorkload(newPlan(swim, 1024, 1024, "coarse"), core.Timing)},
	{"compile_cold", "core.Compile over 24 configs (MM 1024, SWIM 512, CFFT M=11; 4 and 64 ranks; fine, middle, coarse, auto) in seeded order: only f77, analysis, postpass and lmad run",
		setupCompileCold},
	{"serve_hit", "in-process vbserve, 2 closed-loop clients, Clusters=2, POST /v1/jobs?wait=1 cycling MM 48, SWIM 64, CFFT M=9 in timing mode: every measured job is a plan-cache hit",
		func(seed uint64, g *golden) (*instance, error) { return setupServe(seed, true) }},
	{"serve_miss", "same server and clients, every source unique (seeded kernel and size plus a comment line): hit rate 0, compile, single-flight, insert and LRU eviction dominate",
		func(seed uint64, g *golden) (*instance, error) { return setupServe(seed, false) }},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// prepare is one complete set-up: the paper's fixed points re-derived
// and compared, then the workload's own set-up and warm-up.
func prepare(w workload, seed uint64, g *golden) (*instance, error) {
	if err := verifyFixedPoints(g); err != nil {
		return nil, err
	}
	return w.setup(seed, g)
}

// statsOf takes the elapsed virtual time as picoseconds (sim.Time's
// unit) so that the benchmark need not import internal/sim.
func statsOf(elapsedPs int64, rep cluster.Report) runStats {
	return runStats{virtualPs: elapsedPs, commOps: rep.TotalCommOps(), commBytes: rep.TotalCommBytes()}
}

// runWorkload measures repeated runs of one compiled plan. Full-mode
// output must equal the sequential run's (the system's parallel ≡
// sequential claim); the simulated statistics must equal the goldens.
//
// Every op starts from a collected heap, as a run does in a fresh vbrun
// process. Without that, at 1024 ranks (200 MB allocated per run) the
// collector's mark phases land in about one op in ten, at random, and
// put a knee in the latency distribution right at p90: over ten runs
// its quartiles lay 22 % of the median apart, against 6 % this way.
func runWorkload(p plan, mode core.Mode) func(uint64, *golden) (*instance, error) {
	return func(_ uint64, g *golden) (*instance, error) {
		c, err := compile(p)
		if err != nil {
			return nil, err
		}
		wantOut := ""
		if mode == core.Full {
			seq, err := c.RunSequential(core.Full)
			if err != nil {
				return nil, fmt.Errorf("%s sequential: %w", p.label, err)
			}
			wantOut = seq.Output
		}
		ref, err := c.RunParallelWith(mode, core.RunParams{})
		if err != nil {
			return nil, fmt.Errorf("%s reference run: %w", p.label, err)
		}
		want := statsOf(int64(ref.Elapsed), ref.Report)
		if err := g.expectRun(p.label, want); err != nil {
			return nil, err
		}
		inst := &instance{clients: 1, batch: 1, mode: mode, plans: []plan{p}, close: func() {}}
		inst.op = func(k int, tr *tracer) (time.Duration, error) {
			runtime.GC()
			t0 := time.Now()
			res, err := c.RunParallelWith(mode, core.RunParams{})
			d := time.Since(t0)
			tr.add("core.RunParallelWith", -1, k, t0, d)
			if err != nil {
				return d, err
			}
			if got := statsOf(int64(res.Elapsed), res.Report); got != want {
				return d, fmt.Errorf("%s: simulated statistics %+v, want %+v", p.label, got, want)
			}
			if res.Output != wantOut && mode == core.Full {
				return d, fmt.Errorf("%s: parallel output %q differs from sequential %q", p.label, res.Output, wantOut)
			}
			return d, nil
		}
		return inst, warmUp(inst, 3)
	}
}

// warmUp runs n unmeasured ops; their indices are negative so they
// never collide with a measured op's inputs.
func warmUp(inst *instance, n int) error {
	for k := -n; k < 0; k++ {
		if _, err := inst.op(k, nil); err != nil {
			inst.close()
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func compileColdConfigs() []plan {
	var ps []plan
	for _, b := range []struct {
		k    kernel
		size int
	}{{mm, 1024}, {swim, 512}, {cfft, 11}} {
		for _, procs := range []int{4, 64} {
			for _, grain := range []string{"fine", "middle", "coarse", "auto"} {
				ps = append(ps, newPlan(b.k, b.size, procs, grain))
			}
		}
	}
	return ps
}

type compileWant struct{ reportHash, grain string }

func compileResult(c *core.Compiled) compileWant {
	sum := sha256.Sum256([]byte(c.Report()))
	return compileWant{hex.EncodeToString(sum[:]), c.Grain().String()}
}

// setupCompileCold measures core.Compile alone. Ops are heterogeneous
// (p50 is a small 4-rank config, p90 a 64-rank AutoGrain one), so each
// round compiles all configs once, in an order shuffled by the seed.
func setupCompileCold(seed uint64, g *golden) (*instance, error) {
	plans := compileColdConfigs()
	wants := make([]compileWant, len(plans))
	for i, p := range plans { // doubles as the warm-up round
		c, err := compile(p)
		if err != nil {
			return nil, err
		}
		wants[i] = compileResult(c)
		if err := g.expect("compile/"+p.label+"/report_sha256", wants[i].reportHash); err != nil {
			return nil, err
		}
		if err := g.expect("compile/"+p.label+"/grain", wants[i].grain); err != nil {
			return nil, err
		}
	}
	inst := &instance{clients: 1, batch: len(plans), mode: core.Timing, plans: plans, close: func() {}}
	inst.op = func(k int, tr *tracer) (time.Duration, error) {
		i := shuffled(seed, k/len(plans), len(plans))[k%len(plans)]
		c, d, err := tracedCompile(tr, k, plans[i])
		if err != nil {
			return d, err
		}
		if got := compileResult(c); got != wants[i] {
			return d, fmt.Errorf("%s: compiled %+v, want %+v", plans[i].label, got, wants[i])
		}
		return d, nil
	}
	return inst, nil
}

// passMetric maps a compiler pass to the module-prefixed span name its
// time is reported under; a pass not listed folds into core.other_pass.
var passMetric = map[string]string{
	"parse":           "f77.parse",
	"inline":          "analysis.inline",
	"const-prop":      "analysis.const_prop",
	"induction":       "analysis.induction",
	"parallel-detect": "analysis.parallel_detect",
	"partition":       "postpass.partition",
	"spmdize":         "postpass.spmdize",
	"scatter-collect": "postpass.scatter_collect",
	"grain-opt":       "postpass.grain_opt",
	"coalesce":        "postpass.coalesce",
	"avpg":            "postpass.avpg",
	"env-gen":         "postpass.env_gen",
	"grain-select":    "postpass.grain_select",
}

// tracedCompile times one core.Compile. With a tracer it asks the
// compiler for its pass records and lays them out as child spans,
// back to back from the compile's start (the records carry durations
// only).
func tracedCompile(tr *tracer, op int, p plan) (*core.Compiled, time.Duration, error) {
	opts := p.opts
	if tr != nil {
		opts.Trace = &core.PassTrace{}
	}
	t0 := time.Now()
	c, err := core.Compile(p.src, opts)
	d := time.Since(t0)
	if err != nil {
		return nil, d, fmt.Errorf("compile %s: %w", p.label, err)
	}
	if tr != nil {
		parent := tr.add("core.compile", -1, op, t0, d)
		at := t0
		for _, rec := range opts.Trace.Records {
			name, ok := passMetric[rec.Name]
			if !ok {
				name = "core.other_pass"
			}
			tr.add(name, parent, op, at, rec.Wall)
			at = at.Add(rec.Wall)
		}
	}
	return c, d, nil
}

// serveTrio is the fixed program mix of serve_hit.
func serveTrio() []plan {
	return []plan{newPlan(mm, 48, 4, "fine"), newPlan(swim, 64, 4, "fine"), newPlan(cfft, 9, 4, "fine")}
}

// setupServe starts an in-process server and drives it through its
// real handler (JSON and mux, no sockets) from two closed-loop clients:
// the API's ?wait=1 callers each wait for a reply before sending again.
// Every job's virtual_seconds must equal what the batch path computes
// for the same program body.
func setupServe(seed uint64, hit bool) (*instance, error) {
	plans := serveTrio()
	if !hit {
		plans = missBodies()
	}
	type served struct {
		src         string
		wantVirtual float64 // what the batch path computes for this body
	}
	bodies := map[string]served{}
	for _, p := range plans {
		c, err := compile(p)
		if err != nil {
			return nil, err
		}
		res, err := c.RunParallelWith(core.Timing, core.RunParams{})
		if err != nil {
			return nil, fmt.Errorf("%s batch run: %w", p.label, err)
		}
		bodies[p.label] = served{p.src, res.Elapsed.Seconds()}
	}

	srv := jobs.New(jobs.Config{Clusters: 2})
	handler := srv.Handler()
	inst := &instance{clients: 2, batch: 1, mode: core.Timing, plans: plans, server: srv}
	inst.close = func() { _ = srv.Drain(context.Background()) } // no deadline: Drain cannot fail
	if hit {
		inst.batch = len(plans) // a round submits each of the trio once
	}

	// job returns the body's label and the source to submit for op k.
	job := func(k int) (label, src string) {
		if hit {
			label = plans[shuffled(seed, k/len(plans), len(plans))[k%len(plans)]].label
			return label, bodies[label].src
		}
		label, comment := missJob(seed, "job", k)
		return label, comment + bodies[label].src
	}
	submit := func(k int, label, src string, wantHit bool, tr *tracer) (time.Duration, error) {
		body, err := json.Marshal(jobs.Spec{Source: src})
		if err != nil {
			return 0, err
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		handler.ServeHTTP(rec, req)
		d := time.Since(t0)
		if rec.Code != http.StatusOK {
			return d, fmt.Errorf("%s: HTTP %d: %s", label, rec.Code, rec.Body.String())
		}
		var v jobs.View
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			return d, fmt.Errorf("%s: response: %w", label, err)
		}
		traceJob(tr, k, t0, d, v)
		switch {
		case v.State != jobs.StateDone:
			return d, fmt.Errorf("%s: state %s: %s", label, v.State, v.Error)
		case v.CacheHit != wantHit:
			return d, fmt.Errorf("%s: cache_hit %t, want %t", label, v.CacheHit, wantHit)
		case v.VirtualSeconds != bodies[label].wantVirtual:
			return d, fmt.Errorf("%s: virtual_seconds %v, batch path gives %v", label, v.VirtualSeconds, bodies[label].wantVirtual)
		}
		return d, nil
	}
	inst.op = func(k int, tr *tracer) (time.Duration, error) {
		label, src := job(k)
		return submit(k, label, src, hit, tr)
	}
	// Three warm-up jobs. On serve_hit they are the trio's cold
	// compiles, after which every measured job hits; on serve_miss
	// their keys lie outside the measured set.
	for i := 0; i < 3; i++ {
		label, src := plans[i].label, plans[i].src
		if !hit {
			var comment string
			label, comment = missJob(seed, "warm", i)
			src = comment + bodies[label].src
		}
		if _, err := submit(-1-i, label, src, false, nil); err != nil {
			inst.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return inst, nil
}

// traceJob rebuilds a job's server-side phases from its View as
// children of the client span, so the client span's self time is what
// JSON, the mux and the snapshot cost.
func traceJob(tr *tracer, op int, t0 time.Time, d time.Duration, v jobs.View) {
	if tr == nil {
		return
	}
	client := tr.add("jobs.client", -1, op, t0, d)
	total := tr.add("jobs.total", client, op, t0, msDuration(v.TotalMs))
	at := t0
	for _, ph := range []struct {
		name string
		ms   float64
	}{{"jobs.queued", v.QueuedMs}, {"jobs.compile", v.CompileMs}, {"jobs.run", v.RunMs}} {
		tr.add(ph.name, total, op, at, msDuration(ph.ms))
		at = at.Add(msDuration(ph.ms))
	}
	tr.count("jobs.ops", 1)
	if v.CacheHit {
		tr.count("jobs.cache_hits", 1)
	}
}

func msDuration(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

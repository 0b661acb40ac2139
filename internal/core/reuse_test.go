package core_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"vbuscluster/internal/bench"
	"vbuscluster/internal/core"
	"vbuscluster/internal/interp"
	"vbuscluster/internal/postpass"
	"vbuscluster/internal/trace"
)

// TestCompiledConcurrentReuse is the plan-cache safety contract: one
// cached Compiled must be able to drive several concurrent clusters
// (vbserve runs repeat submissions of a cached plan on N worker
// clusters at once) with no shared mutable state. Run under -race
// (make ci does), this fails on any run-time write into the shared
// AST, postpass program or plan structures; without -race it still
// pins bit-identical results across all concurrent runs.
func TestCompiledConcurrentReuse(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		opts core.Options
	}{
		{"one-sided", bench.MMSource(24), core.Options{NumProcs: 4}},
		{"two-sided", bench.MMSource(24), core.Options{NumProcs: 4, TwoSided: true}},
		{"pull-scatter", bench.MMSource(24), core.Options{NumProcs: 4, PullScatter: true}},
		{"coalesce", bench.CFFTSource(8), core.Options{NumProcs: 4, Coalesce: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			testConcurrentReuse(t, tc.src, tc.opts)
		})
	}
}

func testConcurrentReuse(t *testing.T, src string, opts core.Options) {
	c, err := core.Compile(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := c.RunParallelWith(core.Full, core.RunParams{})
	if err != nil {
		t.Fatal(err)
	}

	const concurrent = 6
	results := make([]struct {
		out     string
		elapsed int64
		events  int
	}, concurrent)
	errs := make([]error, concurrent)
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Half the runs are core.Full, half core.Timing, each with its own
			// recorder: the mix exercises both execution paths against
			// the same shared plan at once.
			mode := core.Full
			if i%2 == 1 {
				mode = core.Timing
			}
			rec := trace.New()
			res, err := c.RunParallelWith(mode, core.RunParams{Recorder: rec})
			if err != nil {
				errs[i] = err
				return
			}
			results[i].out = res.Output
			results[i].elapsed = int64(res.Elapsed)
			results[i].events = rec.Len()
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent run %d: %v", i, err)
		}
	}
	for i, r := range results {
		if r.elapsed != int64(ref.Elapsed) {
			t.Errorf("run %d: elapsed %d, reference %d", i, r.elapsed, int64(ref.Elapsed))
		}
		if i%2 == 0 && r.out != ref.Output {
			t.Errorf("run %d: output %q, reference %q", i, r.out, ref.Output)
		}
		if r.events == 0 {
			t.Errorf("run %d: per-run recorder saw no events", i)
		}
		// Every run must record the same timeline length: a shared
		// recorder (the bug RunParams exists to prevent) would instead
		// accumulate events across runs.
		if r.events != results[0].events {
			t.Errorf("run %d: %d trace events, run 0 recorded %d", i, r.events, results[0].events)
		}
	}
}

// TestCompiledConcurrentReuseAutoGrain covers the cache's other hot
// entry: an AutoGrain compilation (three candidate translations priced,
// one kept) reused across concurrent clusters.
func TestCompiledConcurrentReuseAutoGrain(t *testing.T) {
	c, err := core.Compile(bench.CFFTSource(7), core.Options{NumProcs: 4, AutoGrain: true})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := c.RunParallelWith(core.Full, core.RunParams{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.RunParallelWith(core.Full, core.RunParams{})
			if err == nil && res.Output != ref.Output {
				err = fmt.Errorf("output %q differs from reference %q", res.Output, ref.Output)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent auto-grain run %d: %v", i, err)
		}
	}
}

// TestCompiledFirstUseLoweringRace starts every kind of run on a fresh
// Compiled at once, so the goroutines race to lower the program (the
// once-per-plan build), then to lower each loop body on its first
// execution while other ranks and runs already execute it. Under -race
// this fails on any write into the shared lowered form after it is
// published; without -race it still pins parallel ≡ sequential output
// and equal virtual time across all of them.
func TestCompiledFirstUseLoweringRace(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"mm", bench.MMSource(24)},
		{"swim", bench.SwimSource(24, 24)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			c, err := core.Compile(tc.src, core.Options{NumProcs: 4})
			if err != nil {
				t.Fatal(err)
			}
			const concurrent = 8
			outs := make([]string, concurrent)
			elapsed := make([]int64, concurrent)
			errs := make([]error, concurrent)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < concurrent; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					<-start
					run := func() (*interp.Result, error) { return c.RunParallelWith(core.Full, core.RunParams{}) }
					if i%2 == 1 {
						run = func() (*interp.Result, error) { return c.RunSequential(core.Full) }
					}
					res, err := run()
					if err != nil {
						errs[i] = err
						return
					}
					outs[i], elapsed[i] = res.Output, int64(res.Elapsed)
				}(i)
			}
			close(start)
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
			}
			for i := range outs {
				if outs[i] != outs[0] {
					t.Errorf("run %d: output %q, run 0 printed %q", i, outs[i], outs[0])
				}
				if elapsed[i] != elapsed[i%2] {
					t.Errorf("run %d: elapsed %d, run %d took %d", i, elapsed[i], i%2, elapsed[i%2])
				}
			}
		})
	}
}

// TestCompiledFirstUsePlanMemoRace starts eight runs at once on a fresh
// Compiled, so rank goroutines of different runs race to fill the
// per-region rank-plan memo (postpass.RankPlans) that all of them then
// read. Under -race this fails on any unsynchronised fill or any write
// into a published plan; without -race it still pins every run
// bit-identical to a single run of a separate compilation, on each
// transfer path that iterates the memo.
func TestCompiledFirstUsePlanMemoRace(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		opts core.Options
	}{
		{"push", bench.SwimSource(24, 24), core.Options{NumProcs: 4}},
		{"pull-scatter", bench.SwimSource(24, 24), core.Options{NumProcs: 4, PullScatter: true}},
		{"two-sided", bench.MMSource(24), core.Options{NumProcs: 4, TwoSided: true}},
		{"coalesce", bench.CFFTSource(8), core.Options{NumProcs: 4, Coalesce: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			single, err := core.Compile(tc.src, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := single.RunParallelWith(core.Full, core.RunParams{})
			if err != nil {
				t.Fatal(err)
			}
			c, err := core.Compile(tc.src, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			const concurrent = 8
			results := make([]*interp.Result, concurrent)
			errs := make([]error, concurrent)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < concurrent; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					<-start
					results[i], errs[i] = c.RunParallelWith(core.Full, core.RunParams{})
				}(i)
			}
			close(start)
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
			}
			for i, res := range results {
				if res.Output != ref.Output || res.Elapsed != ref.Elapsed {
					t.Errorf("run %d: output %q in %v, single run printed %q in %v", i, res.Output, res.Elapsed, ref.Output, ref.Elapsed)
				}
				if !reflect.DeepEqual(res.Report, ref.Report) {
					t.Errorf("run %d: cluster report differs from the single run's", i)
				}
				if !reflect.DeepEqual(res.Mem, ref.Mem) {
					t.Errorf("run %d: master memory differs from the single run's", i)
				}
			}
			// The runs shared one memo: asking again returns the very
			// slices they filled, not a recomputation.
			for _, r := range c.SPMD.Regions {
				if r.Par == nil {
					continue
				}
				for _, dir := range []postpass.Direction{postpass.Scatter, postpass.Collect} {
					a, b := postpass.RankPlans(r.Par, dir, 1), postpass.RankPlans(r.Par, dir, 1)
					if len(a) != len(b) || (len(a) > 0 && &a[0] != &b[0]) {
						t.Errorf("RankPlans recomputed a memoised plan (dir %d)", dir)
					}
				}
			}
		})
	}
}

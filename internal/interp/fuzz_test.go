package interp

import (
	"fmt"
	"math"
	"testing"

	"vbuscluster/internal/analysis"
	"vbuscluster/internal/f77"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/postpass"
	"vbuscluster/internal/progen"
)

// TestFuzzParallelEqualsSequential is the whole-pipeline differential
// test: for dozens of random programs, the compiled SPMD execution on
// 1..4 processors at every granularity must produce the master memory
// the sequential execution produces (reductions compared with an FP
// reassociation tolerance; everything else exactly).
func TestFuzzParallelEqualsSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz differential test skipped in -short mode")
	}
	const seeds = 60
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := progen.New(seed)
			src := g.Generate()
			prog := compile(t, src)
			cl := newCluster(t, 1)
			seq, err := RunSequential(prog, cl, Full)
			if err != nil {
				t.Fatalf("sequential: %v\n%s", err, src)
			}
			grain := []lmad.Grain{lmad.Fine, lmad.Middle, lmad.Coarse}[seed%3]
			procs := int(seed%4) + 1
			lock := seed%2 == 0
			twoSided := seed%5 == 0
			pull := seed%3 == 0 && !twoSided
			pp, err := postpass.Translate(prog, postpass.Options{
				NumProcs: procs, Grain: grain, LiveOutAll: true,
				LockReductions: lock, TwoSided: twoSided, PullScatter: pull,
			})
			if err != nil {
				t.Fatalf("postpass: %v\n%s", err, src)
			}
			par, err := RunParallel(pp, newCluster(t, procs), Full)
			if err != nil {
				t.Fatalf("parallel: %v\n%s", err, src)
			}
			for name, want := range seq.Mem {
				got, ok := par.Mem[name]
				if !ok {
					continue // compiler temporaries may differ by rank
				}
				if len(got) != len(want) {
					t.Fatalf("%s length mismatch\n%s", name, src)
				}
				for i := range want {
					diff := math.Abs(want[i] - got[i])
					if diff > 1e-9*(1+math.Abs(want[i])) {
						t.Fatalf("grain=%v procs=%d lock=%v two=%v: %s[%d] = %g, want %g\nprogram:\n%s",
							grain, procs, lock, twoSided, name, i, got[i], want[i], src)
					}
				}
			}
		})
	}
}

// TestFuzzFormatRoundTrip: formatting a random program and reparsing
// it must produce identical sequential results.
func TestFuzzFormatRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	for seed := int64(200); seed < 230; seed++ {
		src := progen.New(seed).Generate()
		orig, err := f77.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		formatted := f77.Format(orig)
		a := compile(t, src)
		b, err := f77.Parse(formatted)
		if err != nil {
			t.Fatalf("seed %d reparse: %v\n%s", seed, err, formatted)
		}
		if err := analysis.FrontEnd(b); err != nil {
			t.Fatalf("seed %d front end: %v", seed, err)
		}
		ra, err := RunSequential(a, newCluster(t, 1), Full)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := RunSequential(b, newCluster(t, 1), Full)
		if err != nil {
			t.Fatal(err)
		}
		for name, want := range ra.Mem {
			got, ok := rb.Mem[name]
			if !ok || len(got) != len(want) {
				continue
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("seed %d: %s[%d] = %g vs %g\nformatted:\n%s", seed, name, i, want[i], got[i], formatted)
				}
			}
		}
	}
}

// TestFuzzTimingEqualsFull checks the timing-mode invariant on random
// programs: identical virtual time with and without real execution.
func TestFuzzTimingEqualsFull(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz timing test skipped in -short mode")
	}
	for seed := int64(100); seed < 115; seed++ {
		g := progen.New(seed)
		src := g.Generate()
		prog := compile(t, src)
		full, err := RunSequential(prog, newCluster(t, 1), Full)
		if err != nil {
			t.Fatalf("seed %d full: %v", seed, err)
		}
		timing, err := RunSequential(compile(t, src), newCluster(t, 1), Timing)
		if err != nil {
			t.Fatalf("seed %d timing: %v", seed, err)
		}
		if full.Elapsed != timing.Elapsed {
			t.Fatalf("seed %d: full %v != timing %v\n%s", seed, full.Elapsed, timing.Elapsed, src)
		}
	}
}

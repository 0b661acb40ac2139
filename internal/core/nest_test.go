package core

import (
	"fmt"
	"math"
	"testing"

	"vbuscluster/internal/f77"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/progen"
)

// TestGeneratedNestsRunLikeSequential: every generated nest
// (progen.NewNest) whose top-level loop is parallel runs in Full mode
// on 2 and 4 ranks at every grain to the sequential run's final memory,
// bit for bit. A failing seed is its own subtest, named so that it can
// be run alone.
func TestGeneratedNestsRunLikeSequential(t *testing.T) {
	seeds, failed, ran := 20000, 0, 0
	if testing.Short() {
		seeds = 2000
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		n := progen.NewNest(seed)
		c, err := Compile(n.Src, Options{NumProcs: 2, Grain: lmad.Fine})
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, n.Src)
		}
		if !topLoopAt(c.Prog, n.Loops[0].Line).Parallel {
			continue
		}
		ran++
		seq, err := c.RunSequential(Full)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, n.Src)
		}
		var wrong []string
		for _, procs := range []int{2, 4} {
			for _, grain := range []lmad.Grain{lmad.Fine, lmad.Middle, lmad.Coarse} {
				if procs != 2 || grain != lmad.Fine {
					if c, err = Compile(n.Src, Options{NumProcs: procs, Grain: grain}); err != nil {
						t.Fatalf("seed %d: %v\n%s", seed, err, n.Src)
					}
				}
				par, err := c.RunParallel(Full)
				if err != nil {
					wrong = append(wrong, fmt.Sprintf("P=%d %v: %v", procs, grain, err))
				} else if diff := memDiff(seq.Mem, par.Mem); diff != "" {
					wrong = append(wrong, fmt.Sprintf("P=%d %v: %s", procs, grain, diff))
				}
			}
		}
		if len(wrong) > 0 {
			if failed++; failed <= 10 {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					t.Errorf("the parallel run's memory is not the sequential run's:\n%v\n%sreproduce: go test ./internal/core -run 'TestGeneratedNestsRunLikeSequential/seed=%d$'",
						wrong, n.Src, seed)
				})
			}
		}
	}
	if failed > 10 {
		t.Errorf("%d nests run wrong in all, the first 10 above", failed)
	}
	t.Logf("%d nests, %d with a parallel top-level loop run on 2 and 4 ranks", seeds, ran)
}

// topLoopAt returns the top-level DO loop of prog's main unit on line.
func topLoopAt(prog *f77.Program, line int) *f77.DoLoop {
	for _, s := range prog.Main().Body {
		if l, ok := s.(*f77.DoLoop); ok && l.Line() == line {
			return l
		}
	}
	panic(fmt.Sprintf("no top-level loop on line %d", line))
}

// memDiff describes the first cell where the final arrays X and Y of
// two runs differ, or returns "". The loop variables' final values are
// not compared: a parallel loop's stay on the ranks.
func memDiff(want, got map[string][]float64) string {
	for _, name := range []string{"X", "Y"} {
		w, g := want[name], got[name]
		if len(g) != len(w) {
			return fmt.Sprintf("%s: %d cells, want %d", name, len(g), len(w))
		}
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				return fmt.Sprintf("%s(%d) = %g, want %g", name, i+1, g[i], w[i])
			}
		}
	}
	return ""
}

package interp

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vbuscluster/internal/f77"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/postpass"
)

// mapRaceCheck is the §5.6 race check as it was before the sweep and
// bitmap: every rank's plan materialised, boxes compared pair by pair
// across ranks, and rule (b)'s covered set a per-element map. It
// returns, per collect op, whether the check demotes it. Kept as the
// reference the postpass's grain-opt stage is compared against; it
// reads the ops and changes nothing.
func mapRaceCheck(info *postpass.ParInfo, procs int) []bool {
	demoted := make([]bool, len(info.Collects))
	if procs == 1 {
		return demoted
	}
	type iv struct{ lo, hi int64 }
	plan := func(op *postpass.CommOp, g lmad.Grain, r int) []lmad.Transfer {
		shadow := *op
		shadow.Grain = g
		return postpass.RankPlan(&shadow, info.Ctx, r, procs, info.Schedule)
	}
	const coverLimit = 1 << 22
	seen := map[*f77.Symbol]bool{}
	for _, first := range info.Collects {
		sym := first.Sym
		if seen[sym] {
			continue
		}
		seen[sym] = true
		var ops []*postpass.CommOp
		approx := false
		for _, op := range info.Collects {
			if op.Sym == sym {
				ops = append(ops, op)
				approx = approx || op.Grain != lmad.Fine
			}
		}
		if !approx {
			continue
		}
		boxes := make([][]iv, procs)
		for r := 0; r < procs; r++ {
			for _, op := range ops {
				grain := op.Grain
				if r == 0 {
					grain = lmad.Fine
				}
				for _, tr := range plan(op, grain, r) {
					boxes[r] = append(boxes[r], iv{tr.Offset, tr.Offset + (tr.Elems-1)*tr.Stride})
				}
			}
		}
		safe := true
		for a := 0; a < procs && safe; a++ {
			for b := a + 1; b < procs && safe; b++ {
				for _, x := range boxes[a] {
					for _, y := range boxes[b] {
						if x.lo <= y.hi && y.lo <= x.hi {
							safe = false
						}
					}
				}
			}
		}
		for r := 1; r < procs && safe; r++ {
			var need int64
			for _, b := range boxes[r] {
				need += b.hi - b.lo + 1
			}
			if need > coverLimit {
				safe = false
				break
			}
			covered := map[int64]bool{}
			mark := func(op *postpass.CommOp, g lmad.Grain) {
				for _, tr := range plan(op, g, r) {
					for i := int64(0); i < tr.Elems; i++ {
						if int64(len(covered)) > coverLimit {
							return
						}
						covered[tr.Offset+i*tr.Stride] = true
					}
				}
			}
			for _, op := range ops {
				mark(op, lmad.Fine)
			}
			for _, sop := range info.Scatters {
				if sop.Sym == sym {
					mark(sop, sop.Grain)
				}
			}
			for _, b := range boxes[r] {
				for e := b.lo; e <= b.hi && safe; e++ {
					if !covered[e] {
						safe = false
					}
				}
			}
		}
		if !safe {
			for i, op := range info.Collects {
				if op.Sym == sym && op.Grain != lmad.Fine {
					demoted[i] = true
				}
			}
		}
	}
	return demoted
}

// The sweep-and-bitmap race check must demote exactly the collect ops
// the map-based one did: the reference runs on the ops as the
// scatter-collect stage leaves them, and the grain-opt stage's
// RaceFallback marks are compared against it op by op.
func TestRaceCheckMatchesMapReference(t *testing.T) {
	srcs := map[string]string{}
	files, err := filepath.Glob("../../testdata/*.f")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	for _, file := range files {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(file)] = string(b)
	}
	for seed := int64(0); seed < 200; seed++ {
		srcs[fmt.Sprintf("fuzz-%03d", seed)] = newProgGen(seed).Generate()
	}
	ops, demotions, kept := 0, 0, 0
	for name, src := range srcs {
		prog := compile(t, src)
		for _, procs := range []int{2, 4, 7, 64} {
			for _, grain := range []lmad.Grain{lmad.Middle, lmad.Coarse} {
				var want [][]bool
				hook := func(stage string, _ time.Duration, _ string, p *postpass.Program) {
					switch stage {
					case postpass.StageScatterCollect:
						for _, r := range p.Regions {
							if r.Par == nil {
								want = append(want, nil)
								continue
							}
							want = append(want, mapRaceCheck(r.Par, procs))
						}
					case postpass.StageGrainOpt:
						for i, r := range p.Regions {
							if r.Par == nil {
								continue
							}
							for j, op := range r.Par.Collects {
								ops++
								if op.RaceFallback {
									demotions++
								} else if op.Grain != lmad.Fine {
									kept++
								}
								if op.RaceFallback != want[i][j] || (op.RaceFallback && op.Grain != lmad.Fine) {
									t.Errorf("%s P=%d %v region %d collect %d (%s %v): demoted=%v grain=%v, map-based check says demoted=%v",
										name, procs, grain, i, j, op.Sym.Name, op.Acc.L, op.RaceFallback, op.Grain, want[i][j])
								}
							}
						}
					}
				}
				if _, err := postpass.TranslateStaged(prog, postpass.Options{NumProcs: procs, Grain: grain, LiveOutAll: true}, hook); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
	}
	if demotions < 100 || kept < 100 {
		t.Fatalf("%d collect ops checked: %d demoted, %d kept approximate; the corpus no longer exercises both answers", ops, demotions, kept)
	}
}

package interp_test

import (
	"fmt"
	"math"
	"testing"

	"vbuscluster/internal/analysis"
	"vbuscluster/internal/cluster"
	"vbuscluster/internal/f77"
	"vbuscluster/internal/interp"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/postpass"
	"vbuscluster/internal/progen"
)

// formRun is what one run shows: its output or error, the bits of its
// final memory and its virtual time.
type formRun struct {
	out, err string
	mem      map[string][]uint64
	elapsed  int64
}

func observe(res *interp.Result, err error) formRun {
	if err != nil {
		return formRun{err: err.Error()}
	}
	r := formRun{out: res.Output, mem: map[string][]uint64{}, elapsed: int64(res.Elapsed)}
	for name, vals := range res.Mem {
		bits := make([]uint64, len(vals))
		for i, x := range vals {
			bits[i] = math.Float64bits(x)
		}
		r.mem[name] = bits
	}
	return r
}

// diff names the first way b differs from a, or returns "".
func (a formRun) diff(b formRun) string {
	switch {
	case a.err != b.err:
		return fmt.Sprintf("error %q, want %q", b.err, a.err)
	case a.out != b.out:
		return fmt.Sprintf("output %q, want %q", b.out, a.out)
	case a.elapsed != b.elapsed:
		return fmt.Sprintf("elapsed %d ps, want %d", b.elapsed, a.elapsed)
	}
	for name, want := range a.mem {
		got := b.mem[name]
		if len(got) != len(want) {
			return fmt.Sprintf("%s has %d words, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Sprintf("%s[%d] = %v (%#x), want %v (%#x)", name, i,
					math.Float64frombits(got[i]), got[i], math.Float64frombits(want[i]), want[i])
			}
		}
	}
	if len(b.mem) != len(a.mem) {
		return fmt.Sprintf("%d arrays in memory, want %d", len(b.mem), len(a.mem))
	}
	return ""
}

// TestStraightLoopForms is the three-executor oracle: every generated
// straight loop (progen.Straight) runs in each form it has — its node
// body, its tape one iteration at a time, and its tape's strips —
// sequentially and on P ∈ {1, 4} at fine and coarse grain, and every
// form shows the node body's output, final memory bit for bit and
// virtual time. The loops cover the folds T = T ± X·Y and T = T ± e·Y
// with step-0, strided and backward cursors, REAL of affine INTEGER
// values over up, down, strided and zero-trip loops, the nine
// one-argument intrinsics, and values a fused multiply-add would round
// differently, infinities, a NaN and a negative zero. A loop of fewer
// than two trips is no parallel region, so on four ranks the master
// runs it.
func TestStraightLoopForms(t *testing.T) {
	seeds := 2000
	if testing.Short() {
		seeds = 200
	}
	type config struct {
		name  string
		procs int
		grain lmad.Grain
	}
	configs := []config{{"sequential", 0, 0}, {"P=1 fine", 1, lmad.Fine}, {"P=1 coarse", 1, lmad.Coarse},
		{"P=4 fine", 4, lmad.Fine}, {"P=4 coarse", 4, lmad.Coarse}}
	strips, inits, initStrips := 0, 0, 0
	for seed := int64(0); seed < int64(seeds); seed++ {
		loop := progen.Straight(seed)
		prog, err := f77.Parse(loop.Src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, loop.Src)
		}
		if err := analysis.FrontEnd(prog); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, loop.Src)
		}
		hasStrips := interp.ForceForm(interp.Lower(prog), loop.Line, interp.Strips)
		if hasStrips {
			strips++
		}
		if loop.Init {
			inits++
			if hasStrips {
				initStrips++
			}
		}
		forms := []interp.Form{interp.NodeBody, interp.OneLane}
		if hasStrips {
			forms = append(forms, interp.Strips)
		}
		for _, c := range configs {
			var pp *postpass.Program
			if c.procs > 0 {
				if pp, err = postpass.Translate(prog, postpass.Options{NumProcs: c.procs, Grain: c.grain, LiveOutAll: true}); err != nil {
					t.Fatalf("seed %d %s: %v\n%s", seed, c.name, err, loop.Src)
				}
			}
			var want formRun
			for i, f := range forms {
				cl, err := cluster.New(max(c.procs, 1), cluster.DefaultParams())
				if err != nil {
					t.Fatal(err)
				}
				var res *interp.Result
				if pp == nil {
					lw := interp.Lower(prog)
					if !interp.ForceForm(lw, loop.Line, f) {
						t.Fatalf("seed %d %s: form %d refused", seed, c.name, f)
					}
					res, err = lw.RunSequential(cl, interp.Full)
				} else {
					lw := interp.Lower(pp.Source)
					if !interp.ForceForm(lw, loop.Line, f) {
						t.Fatalf("seed %d %s: form %d refused", seed, c.name, f)
					}
					res, err = lw.RunParallel(pp, cl, interp.Full, interp.RunConfig{})
				}
				got := observe(res, err)
				if i == 0 {
					want = got
					continue
				}
				if d := want.diff(got); d != "" {
					t.Fatalf("seed %d %s, form %d against the node body: %s\n%s", seed, c.name, f, d, loop.Src)
				}
			}
		}
	}
	t.Logf("%d loops, %d with strips; %d initialisation loops, %d with strips", seeds, strips, inits, initStrips)
}

// TestInitialisationLoopsHaveStrips: every generated loop made only of
// initialisation shapes (progen.StraightLoop.Init) — stores of
// constants, of REAL of affine INTEGER values and of the one-argument
// intrinsics — compiles a strip of lanes, as MM's and SWIM's
// initialisation loops do.
func TestInitialisationLoopsHaveStrips(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		loop := progen.Straight(seed)
		if !loop.Init {
			continue
		}
		prog, err := f77.Parse(loop.Src)
		if err == nil {
			err = analysis.FrontEnd(prog)
		}
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, loop.Src)
		}
		if !interp.ForceForm(interp.Lower(prog), loop.Line, interp.Strips) {
			t.Errorf("seed %d: the initialisation loop at line %d has no strip\n%s", seed, loop.Line, loop.Src)
		}
	}
}

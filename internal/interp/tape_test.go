package interp_test

import (
	"testing"

	"vbuscluster/internal/bench"
	"vbuscluster/internal/cluster"
	"vbuscluster/internal/interp"
)

// TestKernelsRideTheTape: after a Full run of MM and of SWIM (its
// initialisation, CALC1 and CALC2), sequential and on four ranks, every
// innermost loop ran on its tape and never lowered its node body, and
// each tape has the lanes and folds listed: MM's K loop runs 128 lanes
// with one fold into C(I,J), its multiply and loads fused in, and
// SWIM's CALC1 and CALC2 and both initialisation loops, whose REAL and
// SIN and COS are lane instructions, run in lanes. A new node kind or eligibility rule that knocks a kernel off
// the tape or out of its lanes fails here, not only in the benchmark.
func TestKernelsRideTheTape(t *testing.T) {
	type shape struct{ lanes, folds int }
	for _, k := range []struct {
		name  string
		src   string
		loops []shape
	}{
		{"MM", bench.MMSource(16), []shape{{128, 0}, {128, 1}}},
		{"SWIM", bench.SwimSource(24, 24), []shape{{85, 0}, {64, 0}, {85, 0}}},
	} {
		for _, procs := range []int{1, 4} {
			pp := translate(t, k.src, procs)
			lw := interp.Lower(pp.Source)
			cl, err := cluster.New(procs, cluster.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			if procs == 1 {
				_, err = lw.RunSequential(cl, interp.Full)
			} else {
				_, err = lw.RunParallel(pp, cl, interp.Full, interp.RunConfig{})
			}
			if err != nil {
				t.Fatal(err)
			}
			forms := interp.InnermostForms(lw)
			if len(forms) != len(k.loops) {
				t.Fatalf("%s on %d ranks: %d innermost loops, want %d", k.name, procs, len(forms), len(k.loops))
			}
			for i, f := range forms {
				if !f.Tape || f.Body {
					t.Errorf("%s on %d ranks: the innermost loop at line %d has tape %v, node body %v; want only a tape",
						k.name, procs, f.Line, f.Tape, f.Body)
				}
				if got := (shape{f.Lanes, f.Folds}); got != k.loops[i] {
					t.Errorf("%s on %d ranks: the innermost loop at line %d has %d lanes and %d folds, want %d and %d",
						k.name, procs, f.Line, got.lanes, got.folds, k.loops[i].lanes, k.loops[i].folds)
				}
			}
		}
	}
}

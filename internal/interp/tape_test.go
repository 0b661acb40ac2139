package interp_test

import (
	"testing"

	"vbuscluster/internal/bench"
	"vbuscluster/internal/cluster"
	"vbuscluster/internal/interp"
)

// TestKernelsRideTheTape: after a Full run of MM and of SWIM (its
// initialisation, CALC1 and CALC2), sequential and on four ranks, every
// innermost loop ran on its tape and never lowered its node body. A new
// node kind or eligibility rule that knocks a kernel off the tape fails
// here, not only in the benchmark.
func TestKernelsRideTheTape(t *testing.T) {
	for _, k := range []struct {
		name  string
		src   string
		loops int
	}{
		{"MM", bench.MMSource(16), 2},
		{"SWIM", bench.SwimSource(24, 24), 3},
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
			if len(forms) != k.loops {
				t.Fatalf("%s on %d ranks: %d innermost loops, want %d", k.name, procs, len(forms), k.loops)
			}
			for _, f := range forms {
				if !f.Tape || f.Body {
					t.Errorf("%s on %d ranks: the innermost loop at line %d has tape %v, node body %v; want only a tape",
						k.name, procs, f.Line, f.Tape, f.Body)
				}
			}
		}
	}
}

package bench

import (
	"fmt"

	"vbuscluster/internal/core"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/sim"
)

// StrideSource builds a synthetic kernel whose update LMAD has the
// given constant stride: W(s*I - s + 1) over I = 1..n touches every
// s-th element, read-modify-write so the region is ReadWrite (the
// scatter then covers the approximate collect boxes and the §5.6
// validity check permits coarse/middle collecting — a write-only
// strided kernel is always demoted to fine, by design). Sweeping s
// probes the §6 conclusion: which granularity wins depends on the
// access pattern.
func StrideSource(n, stride int) string {
	return fmt.Sprintf(`
      PROGRAM STRIDE
      INTEGER N, S
      PARAMETER (N = %d, S = %d)
      REAL W(S*N)
      INTEGER I
      DO I = 1, N
        W(S*I - S + 1) = W(S*I - S + 1) + 0.5
      ENDDO
      PRINT *, W(1)
      END
`, n, stride)
}

// CrossoverPoint is one stride's comm time under each granularity.
type CrossoverPoint struct {
	Stride    int
	Fine      sim.Time
	Middle    sim.Time
	Coarse    sim.Time
	BestGrain lmad.Grain
}

// Crossover sweeps the write stride and reports, per stride, the
// communication time at each granularity and the winner. The expected
// shape under the V-Bus cost model: fine (strided PIO) wins at very
// large strides where dense approximations ship mostly padding; middle
// and coarse win at small strides, where one dense DMA beats
// per-element programmed I/O — the crossover is where
// stride · wireTimePerElement ≈ PIOPerElement (it moves with the card's
// per-element vs per-message cost ratio).
func Crossover(n int, strides []int, env Env) ([]CrossoverPoint, error) {
	var out []CrossoverPoint
	for _, s := range strides {
		var t [3]sim.Time
		best := 0
		for i, grain := range grains {
			res, err := compileRun(fmt.Sprintf("stride %d/%v", s, grain), StrideSource(n, s),
				core.Options{NumProcs: env.procs(), Grain: grain, Fabric: env.Fabric}, (*core.Compiled).RunParallel, core.Timing)
			if err != nil {
				return nil, err
			}
			t[i] = res.Report.TotalXferTime()
			if t[i] < t[best] {
				best = i
			}
		}
		out = append(out, CrossoverPoint{Stride: s, Fine: t[0], Middle: t[1], Coarse: t[2], BestGrain: grains[best]})
	}
	return out, nil
}

func runCrossover(env Env) (Report, error) {
	points, err := Crossover(Sized(env.Quick, 1<<12, 1<<15), []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}, env)
	if err != nil {
		return Report{}, err
	}
	t := Table{
		Title:     "Granularity crossover: comm time vs write stride (stride-s kernel)",
		Header:    "stride\tfine\t\tmiddle\t\tcoarse\t\tbest",
		RowFormat: "%d\t%-10v\t%-10v\t%-10v\t%v\n",
	}
	for _, p := range points {
		t.Add(p.Stride, p.Fine, p.Middle, p.Coarse, p.BestGrain)
	}
	return Report{Tables: []Table{t}}, nil
}

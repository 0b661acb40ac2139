package interp_test

import (
	"testing"

	"vbuscluster/internal/analysis"
	"vbuscluster/internal/bench"
	"vbuscluster/internal/cluster"
	"vbuscluster/internal/f77"
	"vbuscluster/internal/interp"
)

// BenchmarkInterpFull measures the evaluator alone: sequential Full-mode
// execution of an already lowered program, no MPI, no compile. The
// custom metric divides wall time by the innermost-loop iterations
// executed, so MM (one multiply-add statement per iteration) and SWIM
// (three to six stencil statements) read on the same scale.
func BenchmarkInterpFull(b *testing.B) {
	const mm, swim = 96, 192
	for _, bc := range []struct {
		name  string
		src   string
		iters int
	}{
		{"MM96", bench.MMSource(mm), mm*mm + mm*mm*mm},
		{"SWIM192", bench.SwimSource(swim, swim), swim*swim + (swim-1)*(swim-1) + (swim-2)*(swim-2)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			prog, err := f77.Parse(bc.src)
			if err != nil {
				b.Fatal(err)
			}
			if err := analysis.FrontEnd(prog); err != nil {
				b.Fatal(err)
			}
			lw := interp.Lower(prog)
			cl, err := cluster.New(1, cluster.DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cl.Reset()
				if _, err := lw.RunSequential(cl, interp.Full); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(bc.iters), "ns/inner-iter")
		})
	}
}

// BenchmarkRunTiming1024 is one Timing-mode run of SWIM 1024² on 1024
// ranks at coarse grain on a fresh cluster — the benchmark's swim_scale
// op: what 1024 rank goroutines, 21 barriers each and ~57 000 charged
// transfers cost the host once the plan is lowered and its rank plans
// are memoised.
func BenchmarkRunTiming1024(b *testing.B) {
	pp := translate(b, bench.SwimSource(1024, 1024), 1024)
	lw := interp.Lower(pp.Source)
	timingRun(b, lw, pp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timingRun(b, lw, pp)
	}
}

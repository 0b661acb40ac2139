package core_test

import (
	"testing"

	"vbuscluster/internal/bench"
	"vbuscluster/internal/core"
	"vbuscluster/internal/lmad"
)

// Compile reads access questions off the descriptors, so what it
// allocates must follow the program text and the rank count, not the
// problem size: the same kernel at N=128 and N=2048 has to compile in
// (nearly) the same number of allocations.
func TestCompileAllocsIndependentOfProblemSize(t *testing.T) {
	for _, tc := range []struct {
		name   string
		src    func(n int) string
		opts   core.Options
		within float64
	}{
		{"MM/fine/P=4", bench.MMSource, core.Options{NumProcs: 4, Grain: lmad.Fine}, 0.05},
		{"SWIM/fine/P=4", func(n int) string { return bench.SwimSource(n, n) }, core.Options{NumProcs: 4, Grain: lmad.Fine}, 0.05},
		{"MM/auto/P=64", bench.MMSource, core.Options{NumProcs: 64, AutoGrain: true}, 0.15},
		{"SWIM/auto/P=64", func(n int) string { return bench.SwimSource(n, n) }, core.Options{NumProcs: 64, AutoGrain: true}, 0.15},
	} {
		allocs := func(n int) float64 {
			src := tc.src(n)
			return testing.AllocsPerRun(3, func() {
				if _, err := core.Compile(src, tc.opts); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := allocs(128), allocs(2048)
		t.Logf("%s: %.0f allocations at N=128, %.0f at N=2048", tc.name, small, large)
		if large > small*(1+tc.within) || large < small*(1-tc.within) {
			t.Errorf("%s: %.0f allocations at N=128 but %.0f at N=2048 (want within %.0f %%)",
				tc.name, small, large, tc.within*100)
		}
	}
}

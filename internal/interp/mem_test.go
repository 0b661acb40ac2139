package interp_test

import (
	"runtime"
	"strings"
	"testing"

	"vbuscluster/internal/analysis"
	"vbuscluster/internal/bench"
	"vbuscluster/internal/cluster"
	"vbuscluster/internal/core"
	"vbuscluster/internal/f77"
	"vbuscluster/internal/interp"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/postpass"
)

// translate parses, analyses and SPMD-translates src for procs ranks at
// coarse grain.
func translate(tb testing.TB, src string, procs int) *postpass.Program {
	tb.Helper()
	prog, err := f77.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	if err := analysis.FrontEnd(prog); err != nil {
		tb.Fatal(err)
	}
	pp, err := postpass.Translate(prog, postpass.Options{NumProcs: procs, Grain: lmad.Coarse, LiveOutAll: true})
	if err != nil {
		tb.Fatal(err)
	}
	return pp
}

func timingRun(tb testing.TB, lw *interp.Lowered, pp *postpass.Program) *interp.Result {
	tb.Helper()
	params := cluster.DefaultParams()
	params.MeshWidth, params.MeshHeight = core.MeshFor(pp.Opts.NumProcs)
	cl, err := cluster.New(pp.Opts.NumProcs, params)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := lw.RunParallel(pp, cl, interp.Timing, interp.RunConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// A Timing run allocates on the master what the run really touches and
// nothing else: SWIM's parallel loops are charged in closed form, so of
// its ten arrays only the two a sequential section stores into exist
// afterwards, holding exactly what an up-front allocation would hold.
func TestTimingMasterAllocatesOnlyTouchedArrays(t *testing.T) {
	const n = 256
	src := strings.Replace(bench.SwimSource(n, n), "      TDTSDY = DT / 100000.0\n",
		"      TDTSDY = DT / 100000.0\n      H(1,1) = DT\n      Z(2,2) = H(1,1) + 1.0\n", 1)
	pp := translate(t, src, 4)
	res := timingRun(t, interp.Lower(pp.Source), pp)

	for _, name := range []string{"U", "V", "P", "UNEW", "VNEW", "PNEW", "CU", "CV"} {
		if buf, ok := res.Mem[name]; ok {
			t.Errorf("untouched array %s is in Result.Mem (%d cells)", name, len(buf))
		}
	}
	for name, at := range map[string]struct {
		idx int
		val float64
	}{"H": {0, 90}, "Z": {n + 1, 91}} {
		buf := res.Mem[name]
		if len(buf) != n*n {
			t.Fatalf("touched array %s has %d cells in Result.Mem, want %d", name, len(buf), n*n)
		}
		for i, v := range buf {
			want := 0.0
			if i == at.idx {
				want = at.val
			}
			if v != want {
				t.Fatalf("%s[%d] = %v, want %v", name, i, v, want)
			}
		}
	}
	if got := res.Mem["DT"]; len(got) != 1 || got[0] != 90 {
		t.Errorf("scalar DT = %v, want [90]", got)
	}
}

// A 64-rank Timing run of SWIM 256² (ten 512 KB arrays) must neither
// allocate the arrays nor copy them into the result: the bytes of one
// run stay below two of the arrays, and the allocation count under a
// fixed ceiling (measured ~1 500 and ~190 KB; re-planning every rank's
// transfers and making every window's lock channels each run would
// take the count several times past it).
func TestResultMemIsNotCopied(t *testing.T) {
	pp := translate(t, bench.SwimSource(256, 256), 64)
	lw := interp.Lower(pp.Source)
	timingRun(t, lw, pp) // lower the loop bodies, fill the plan memo

	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() { timingRun(t, lw, pp) })
	runtime.ReadMemStats(&after)
	// AllocsPerRun calls the function runs+1 times.
	bytesPerRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	t.Logf("%.0f allocations, %d bytes per run", allocs, bytesPerRun)
	if bytesPerRun >= 1<<20 {
		t.Errorf("a timing run allocated %d bytes, want < 1 MB", bytesPerRun)
	}
	if allocs > 4000 {
		t.Errorf("a timing run made %.0f allocations, want <= 4000", allocs)
	}
}

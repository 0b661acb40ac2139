package interp_test

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"vbuscluster/internal/analysis"
	"vbuscluster/internal/bench"
	"vbuscluster/internal/cluster"
	"vbuscluster/internal/core"
	"vbuscluster/internal/f77"
	"vbuscluster/internal/interp"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/postpass"
)

// frontEnd parses src and runs the front end over it.
func frontEnd(tb testing.TB, src string) *f77.Program {
	tb.Helper()
	prog, err := f77.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	if err := analysis.FrontEnd(prog); err != nil {
		tb.Fatal(err)
	}
	return prog
}

// translate parses, analyses and SPMD-translates src for procs ranks at
// coarse grain.
func translate(tb testing.TB, src string, procs int) *postpass.Program {
	tb.Helper()
	pp, err := postpass.Translate(frontEnd(tb, src), postpass.Options{NumProcs: procs, Grain: lmad.Coarse, LiveOutAll: true})
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

// A Full-mode slave carves its arrays from a block the pool may hand
// back dirty: whatever a recycled block held, every cell must read as
// +0 (bit pattern 0, so −0 and NaN count), every array must end at its
// own edge (len == cap), and a block of the wrong size must not be
// used. Each round recycles a NaN/−0 block of the right size and a
// shorter one, then builds two slaves: the pool hands back one block
// each (or none), and the right-sized one must be reused at least once.
func TestRecycledFrameIsZero(t *testing.T) {
	pp := translate(t, bench.SwimSource(16, 16), 2)
	lw := interp.Lower(pp.Source)
	cl, err := cluster.New(2, cluster.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	n := interp.FrameSize(lw)
	dirty := func(n int) *[]float64 {
		b := make([]float64, n)
		for i := range b {
			b[i] = math.NaN()
			if i%2 == 1 {
				b[i] = math.Copysign(0, -1)
			}
		}
		return &b
	}
	reused := 0
	for round := 0; round < 16; round++ {
		block := dirty(n)
		interp.RecycleFrame(lw, block)
		interp.RecycleFrame(lw, dirty(n-1))
		for slave := 0; slave < 2; slave++ {
			arrays, err := interp.SlaveArrays(lw, cl)
			if err != nil {
				t.Fatal(err)
			}
			if len(arrays["U"]) == 0 {
				t.Fatal("the slave has no array U")
			}
			for name, buf := range arrays {
				if len(buf) != cap(buf) {
					t.Fatalf("%s: len %d, cap %d", name, len(buf), cap(buf))
				}
				for i, v := range buf {
					if math.Float64bits(v) != 0 {
						t.Fatalf("round %d: %s[%d] = %v (bits %#x), want +0", round, name, i, v, math.Float64bits(v))
					}
				}
				if len(buf) > 1 && &buf[0] == &(*block)[0] {
					reused++
				}
			}
		}
	}
	if reused == 0 {
		t.Fatal("the pool never handed back a recycled block")
	}
}

// A successful Full-mode run hands its slaves' blocks back to the pool,
// never the master's, and the next run takes them again. Each try runs
// the program, takes one block from the pool, checks that no array of
// the run's Result.Mem lies in it, fills it with NaN and puts it back:
// the next run must clear all of it. sync.Pool promises nothing (under
// the race detector it drops a quarter of what is put back, and a
// block parked on another P is out of a slave's reach), so the whole
// cycle must show in one try of 32.
func TestFullRunRecyclesSlaveFrames(t *testing.T) {
	pp := translate(t, bench.SwimSource(32, 32), 4)
	lw := interp.Lower(pp.Source)
	run := func() *interp.Result {
		cl, err := cluster.New(4, cluster.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		res, err := lw.RunParallel(pp, cl, interp.Full, interp.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for try := 0; try < 32; try++ {
		res := run()
		f := interp.TakeFrame(lw)
		if f == nil {
			continue
		}
		block := *f
		lo := uintptr(unsafe.Pointer(&block[0]))
		hi := lo + uintptr(len(block))*8
		for name, buf := range res.Mem {
			if p := uintptr(unsafe.Pointer(unsafe.SliceData(buf))); len(buf) > 0 && p >= lo && p < hi {
				t.Fatalf("the master's %s went back to the pool", name)
			}
		}
		for i := range block {
			block[i] = math.NaN()
		}
		interp.RecycleFrame(lw, f)
		run()
		cleared := 0
		for _, v := range block {
			if !math.IsNaN(v) {
				cleared++
			}
		}
		switch cleared {
		case len(block):
			return
		case 0: // no slave took it this time
		default:
			t.Fatalf("a run cleared %d of the recycled block's %d cells", cleared, len(block))
		}
	}
	t.Fatal("in 32 tries no run took back a block that a run had handed back")
}

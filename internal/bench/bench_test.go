package bench

import (
	"math"
	"strings"
	"testing"

	"vbuscluster/internal/core"
	"vbuscluster/internal/lmad"
)

// ---- Benchmark sources compile and verify against each other ----

func TestMMSourceCorrect(t *testing.T) {
	c, err := core.Compile(MMSource(16), core.Options{NumProcs: 4, Grain: lmad.Coarse})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := c.RunSequential(core.Full)
	if err != nil {
		t.Fatal(err)
	}
	par, err := c.RunParallel(core.Full)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range seq.Mem["C"] {
		if math.Abs(v-par.Mem["C"][i]) > 1e-9 {
			t.Fatalf("C[%d]: %g vs %g", i, v, par.Mem["C"][i])
		}
	}
}

func TestSwimSourceCorrect(t *testing.T) {
	c, err := core.Compile(SwimSource(20, 20), core.Options{NumProcs: 4, Grain: lmad.Fine})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := c.RunSequential(core.Full)
	if err != nil {
		t.Fatal(err)
	}
	par, err := c.RunParallel(core.Full)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"PNEW", "UNEW", "VNEW", "CU", "CV", "Z", "H"} {
		s, p := seq.Mem[name], par.Mem[name]
		if len(s) == 0 || len(s) != len(p) {
			t.Fatalf("%s missing or size mismatch", name)
		}
		for i := range s {
			if math.Abs(s[i]-p[i]) > 1e-9*(1+math.Abs(s[i])) {
				t.Fatalf("%s[%d]: %g vs %g", name, i, s[i], p[i])
			}
		}
	}
}

func TestSwimHasParallelRegions(t *testing.T) {
	c, err := core.Compile(SwimSource(20, 20), core.Options{NumProcs: 4, Grain: lmad.Fine})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.Report(), "parallel DO I") {
		t.Fatalf("SWIM loops not parallelized:\n%s", c.Report())
	}
}

func TestCFFTSourceCorrect(t *testing.T) {
	c, err := core.Compile(CFFTSource(7), core.Options{NumProcs: 4, Grain: lmad.Middle})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := c.RunSequential(core.Full)
	if err != nil {
		t.Fatal(err)
	}
	par, err := c.RunParallel(core.Full)
	if err != nil {
		t.Fatal(err)
	}
	n := 1 << 7
	w := par.Mem["W"]
	for i := 1; i <= n; i++ {
		wantC := math.Cos(math.Pi * float64(i-1) / float64(n))
		if math.Abs(w[2*i-2]-wantC) > 1e-6 {
			t.Fatalf("W(%d) = %g, want %g", 2*i-1, w[2*i-2], wantC)
		}
	}
	for i := range seq.Mem["W"] {
		if seq.Mem["W"][i] != w[i] {
			t.Fatalf("seq/par diverge at %d", i)
		}
	}
}

// ---- Table 1 shape ----

func TestTable1Shape(t *testing.T) {
	// 64² is still comm-dominated (like the paper's 256² cell, where 2
	// nodes manage only 1.086); 128² shows real scaling.
	rows, err := Table1([]int{64, 128}, []int{1, 2, 4}, lmad.Coarse, Env{})
	if err != nil {
		t.Fatal(err)
	}
	get := func(size, procs int) float64 {
		for _, r := range rows {
			if r.Size == size && r.Procs == procs {
				return r.Speedup
			}
		}
		t.Fatalf("missing cell %d/%d", size, procs)
		return 0
	}
	// 1 node lands just below 1 (SPMD overhead).
	for _, n := range []int{64, 128} {
		s1 := get(n, 1)
		if s1 >= 1.0 || s1 < 0.85 {
			t.Fatalf("size %d 1-node speedup = %.3f, want slightly below 1", n, s1)
		}
	}
	// Speedup grows with node count at the larger size.
	if !(get(128, 4) > get(128, 2) && get(128, 2) > get(128, 1)) {
		t.Fatalf("128² speedups not increasing: %v %v %v", get(128, 1), get(128, 2), get(128, 4))
	}
	if get(128, 4) < 1.5 {
		t.Fatalf("128² 4-node speedup %.3f too low", get(128, 4))
	}
	// Speedup grows with problem size (comm amortizes).
	if get(128, 4) <= get(64, 4) {
		t.Fatalf("4-node speedup should grow with size: %v vs %v", get(64, 4), get(128, 4))
	}
}

// ---- Table 2 shape (the §6 findings) ----

func TestTable2Shape(t *testing.T) {
	rows, err := Table2(Table2Benchmarks(64, 64, 9), Env{})
	if err != nil {
		t.Fatal(err)
	}
	get := func(sub string, g lmad.Grain) Table2Row {
		for _, r := range rows {
			if strings.HasPrefix(r.Benchmark, sub) && r.Grain == g {
				return r
			}
		}
		t.Fatalf("missing row %s/%v", sub, g)
		return Table2Row{}
	}
	// MM: coarse beats fine; middle is worse than fine (the paper's
	// §6 finding: "at the middle grain, communication cost increases").
	mmF, mmM, mmC := get("MM", lmad.Fine), get("MM", lmad.Middle), get("MM", lmad.Coarse)
	if !(mmC.CommTime < mmF.CommTime) {
		t.Fatalf("MM: coarse (%v) should beat fine (%v)", mmC.CommTime, mmF.CommTime)
	}
	if !(mmM.CommTime > mmF.CommTime) {
		t.Fatalf("MM: middle (%v) should be worse than fine (%v)", mmM.CommTime, mmF.CommTime)
	}
	// SWIM: same direction ("we obtained poor results at the Middle
	// grain... speedup in the communication time ... at the coarse").
	swF, swM, swC := get("Swim", lmad.Fine), get("Swim", lmad.Middle), get("Swim", lmad.Coarse)
	if !(swC.CommTime < swF.CommTime) {
		t.Fatalf("SWIM: coarse (%v) should beat fine (%v)", swC.CommTime, swF.CommTime)
	}
	if !(swM.CommTime > swF.CommTime) {
		t.Fatalf("SWIM: middle (%v) should be worse than fine (%v)", swM.CommTime, swF.CommTime)
	}
	// CFFT2INIT: stride-2 LMADs make middle profitable, coarse best.
	cfF, cfM, cfC := get("CFFT", lmad.Fine), get("CFFT", lmad.Middle), get("CFFT", lmad.Coarse)
	if !(cfM.CommTime < cfF.CommTime) {
		t.Fatalf("CFFT: middle (%v) should beat fine (%v)", cfM.CommTime, cfF.CommTime)
	}
	if !(cfC.CommTime <= cfM.CommTime) {
		t.Fatalf("CFFT: coarse (%v) should be best (middle %v)", cfC.CommTime, cfM.CommTime)
	}
}

func TestFormatting(t *testing.T) {
	grid := pivot("Speedups", "# of Nodes", "%.3f", []cell{
		{"1", "16*16", 0.9}, {"2", "16*16", 1.5}, {"1", "32*32", 0.95}, {"2", "32*32", 1.75},
	})
	want := "Speedups\n# of Nodes\t16*16\t32*32\n1\t0.900\t0.950\n2\t1.500\t1.750\n"
	if got := grid.String(); got != want {
		t.Fatalf("pivot render:\n%q\nwant\n%q", got, want)
	}
	raw := Table{Title: "raw cells:", RowFormat: "  %s=%d\n"}
	raw.Add("a", 1)
	raw.Add("b", 2)
	if got, want := raw.String(), "raw cells:\n  a=1\n  b=2\n"; got != want {
		t.Fatalf("headerless table render: %q, want %q", got, want)
	}
}

// ---- §2 microbenchmarks ----

func TestMicroShapes(t *testing.T) {
	r, err := RunMicro()
	if err != nil {
		t.Fatal(err)
	}
	// SKWP ≈ 4x conventional for large messages.
	last := r.SKWPBandwidth[len(r.SKWPBandwidth)-1]
	ratio := last.SKWP / last.Conventional
	if ratio < 3 || ratio > 6 {
		t.Fatalf("SKWP/conventional = %.2f, want ~4", ratio)
	}
	// Wave pipelining degrades with hops; SKWP does not.
	first, lastD := r.WaveDegradation[0], r.WaveDegradation[len(r.WaveDegradation)-1]
	if lastD.Wave <= first.Wave {
		t.Fatal("wave interval did not degrade with hops")
	}
	if lastD.SKWP != first.SKWP {
		t.Fatal("SKWP interval changed with hops")
	}
	// V-Bus latency ~4x lower than Ethernet.
	lr := float64(r.LatencyEthernet) / float64(r.LatencyVBus)
	if lr < 3 || lr > 10 {
		t.Fatalf("latency ratio = %.2f, want ~4", lr)
	}
	// V-Bus broadcast beats the p2p tree and the Ethernet tree at every
	// payload.
	for _, p := range r.Broadcast {
		if p.VBus >= p.TreeP2P {
			t.Fatalf("bytes %d: v-bus (%v) should beat p2p tree (%v)", p.Bytes, p.VBus, p.TreeP2P)
		}
		if p.VBus >= p.Ethernet {
			t.Fatalf("bytes %d: v-bus (%v) should beat ethernet (%v)", p.Bytes, p.VBus, p.Ethernet)
		}
	}
}

// The extension experiment quantifying the paper's §6 conclusion ("any
// single technique does not work for all types of communication
// patterns"): dense middle-grain transfers beat strided fine-grain PIO
// at small strides and lose at large ones. The crossover sits near
// PIOPerElement / wireTimePerElement + 1 ≈ 7 under the default
// calibration.
func TestCrossoverShape(t *testing.T) {
	points, err := Crossover(1<<12, []int{2, 4, 16, 32}, Env{})
	if err != nil {
		t.Fatal(err)
	}
	get := func(s int) CrossoverPoint {
		for _, p := range points {
			if p.Stride == s {
				return p
			}
		}
		t.Fatalf("missing stride %d", s)
		return CrossoverPoint{}
	}
	for _, s := range []int{2, 4} {
		if p := get(s); p.Middle >= p.Fine {
			t.Fatalf("stride %d: middle (%v) should beat fine (%v)", s, p.Middle, p.Fine)
		}
	}
	for _, s := range []int{16, 32} {
		if p := get(s); p.Fine >= p.Middle {
			t.Fatalf("stride %d: fine (%v) should beat middle (%v)", s, p.Fine, p.Middle)
		}
	}
	// And the AutoGrain advisor must pick the right side of the
	// crossover in both regimes.
	for _, c := range []struct {
		stride int
		want   lmad.Grain
	}{{2, lmad.Middle}, {32, lmad.Fine}} {
		comp, err := core.Compile(StrideSource(1<<12, c.stride), core.Options{NumProcs: 4, AutoGrain: true})
		if err != nil {
			t.Fatal(err)
		}
		got := comp.Grain()
		// Middle and coarse tie on this kernel; accept either on the
		// dense side.
		if c.want == lmad.Middle && (got == lmad.Middle || got == lmad.Coarse) {
			continue
		}
		if got != c.want {
			t.Fatalf("stride %d: advisor chose %v, want %v", c.stride, got, c.want)
		}
	}
}

// ---- Cross-backend regression ----

// TestFabricOrdering pins the relative cost of the interconnect
// backends on the paper's MM benchmark: Fast Ethernet must be strictly
// more expensive than the V-Bus card at every granularity (the paper's
// "four times higher bandwidth and much lower latency" claim), and the
// ideal backend must report zero communication time (it isolates
// compute scaling).
func TestFabricOrdering(t *testing.T) {
	src := MMSource(256)
	xfer := func(fabric string, grain lmad.Grain) float64 {
		t.Helper()
		c, err := core.Compile(src, core.Options{NumProcs: 4, Grain: grain, Fabric: fabric})
		if err != nil {
			t.Fatalf("%s/%v: %v", fabric, grain, err)
		}
		res, err := c.RunParallel(core.Timing)
		if err != nil {
			t.Fatalf("%s/%v run: %v", fabric, grain, err)
		}
		return res.Report.TotalXferTime().Seconds()
	}
	for _, grain := range []lmad.Grain{lmad.Fine, lmad.Middle, lmad.Coarse} {
		vbus := xfer("vbus", grain)
		eth := xfer("ethernet", grain)
		if eth <= vbus {
			t.Errorf("grain %v: ethernet comm %.6fs <= vbus comm %.6fs, want strictly higher", grain, eth, vbus)
		}
		if ideal := xfer("ideal", grain); ideal != 0 {
			t.Errorf("grain %v: ideal backend comm %.6fs, want 0", grain, ideal)
		}
	}
}

// TestFabricSameNumerics checks that swapping the interconnect changes
// only virtual time, never computed values: the full-mode MM result is
// bit-identical across backends.
func TestFabricSameNumerics(t *testing.T) {
	src := MMSource(16)
	var ref []float64
	for _, fabric := range []string{"vbus", "ethernet", "ideal"} {
		c, err := core.Compile(src, core.Options{NumProcs: 4, Grain: lmad.Coarse, Fabric: fabric})
		if err != nil {
			t.Fatalf("%s: %v", fabric, err)
		}
		res, err := c.RunParallel(core.Full)
		if err != nil {
			t.Fatalf("%s run: %v", fabric, err)
		}
		if ref == nil {
			ref = res.Mem["C"]
			continue
		}
		for i, v := range res.Mem["C"] {
			if v != ref[i] {
				t.Fatalf("%s: C[%d] = %g differs from vbus %g", fabric, i, v, ref[i])
			}
		}
	}
}

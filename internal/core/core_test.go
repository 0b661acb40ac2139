package core

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vbuscluster/internal/cluster"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/nic"
	"vbuscluster/internal/postpass"
)

const testSrc = `
      PROGRAM T
      INTEGER N
      PARAMETER (N = 48)
      REAL A(N), B(N), S
      INTEGER I
      DO I = 1, N
        B(I) = REAL(I)
      ENDDO
      DO I = 1, N
        A(I) = B(I) * 2.0
      ENDDO
      S = 0.0
      DO I = 1, N
        S = S + A(I)
      ENDDO
      PRINT *, S
      END
`

func TestCompileDefaults(t *testing.T) {
	c, err := Compile(testSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.SPMD.Opts.NumProcs != 4 {
		t.Fatalf("default procs = %d", c.SPMD.Opts.NumProcs)
	}
	if !c.SPMD.Opts.LiveOutAll {
		t.Fatal("LiveOutAll should default on")
	}
}

func TestEndToEndSpeedup(t *testing.T) {
	c, err := Compile(testSrc, Options{NumProcs: 4, Grain: lmad.Coarse})
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Speedup()
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 {
		t.Fatalf("speedup = %v", s)
	}
}

func TestFullModeResultsAgree(t *testing.T) {
	c, err := Compile(testSrc, Options{NumProcs: 3, Grain: lmad.Fine})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := c.RunSequential(Full)
	if err != nil {
		t.Fatal(err)
	}
	par, err := c.RunParallel(Full)
	if err != nil {
		t.Fatal(err)
	}
	want := 2.0 * 48.0 * 49.0 / 2.0
	for _, res := range []string{seq.Output, par.Output} {
		if !strings.Contains(res, "2352") {
			t.Fatalf("checksum missing (want %v): %q", want, res)
		}
	}
	for i := range seq.Mem["A"] {
		if math.Abs(seq.Mem["A"][i]-par.Mem["A"][i]) > 0 {
			t.Fatalf("A[%d] differs", i)
		}
	}
}

func TestMeshFor(t *testing.T) {
	cases := []struct{ n, w, h int }{
		{1, 1, 1}, {2, 2, 1}, {3, 2, 2}, {4, 2, 2}, {5, 3, 2}, {7, 3, 3},
		{9, 3, 3}, {16, 4, 4}, {17, 5, 4},
	}
	for _, c := range cases {
		w, h := MeshFor(c.n)
		if w*h < c.n {
			t.Fatalf("MeshFor(%d) = %dx%d does not fit", c.n, w, h)
		}
		if w != c.w || h != c.h {
			t.Fatalf("MeshFor(%d) = %dx%d, want %dx%d", c.n, w, h, c.w, c.h)
		}
		// Near-square: sides differ by at most one, and no row is wasted.
		if w-h < 0 || w-h > 1 {
			t.Fatalf("MeshFor(%d) = %dx%d not near-square", c.n, w, h)
		}
		if w*(h-1) >= c.n {
			t.Fatalf("MeshFor(%d) = %dx%d has an empty row", c.n, w, h)
		}
	}
}

func TestCustomParams(t *testing.T) {
	card, err := nic.NewEthernet(nic.DefaultEthernetConfig())
	if err != nil {
		t.Fatal(err)
	}
	params := cluster.DefaultParams()
	params.Fabric = card
	cEth, err := Compile(testSrc, Options{NumProcs: 4, Grain: lmad.Fine, Params: &params})
	if err != nil {
		t.Fatal(err)
	}
	resEth, err := cEth.RunParallel(Timing)
	if err != nil {
		t.Fatal(err)
	}
	cVB, err := Compile(testSrc, Options{NumProcs: 4, Grain: lmad.Fine})
	if err != nil {
		t.Fatal(err)
	}
	resVB, err := cVB.RunParallel(Timing)
	if err != nil {
		t.Fatal(err)
	}
	if resEth.Report.TotalXferTime() <= resVB.Report.TotalXferTime() {
		t.Fatalf("ethernet comm (%v) should exceed vbus comm (%v)",
			resEth.Report.TotalXferTime(), resVB.Report.TotalXferTime())
	}
}

func TestLargeProcCountGetsWiderMesh(t *testing.T) {
	c, err := Compile(testSrc, Options{NumProcs: 9, Grain: lmad.Fine})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunParallel(Timing); err != nil {
		t.Fatalf("9-proc run failed: %v", err)
	}
}

func TestCompileErrorsSurface(t *testing.T) {
	if _, err := Compile("garbage", Options{}); err == nil {
		t.Fatal("bad source accepted")
	}
	if _, err := Compile(`
      PROGRAM P
      CALL MISSING(1)
      END
`, Options{}); err == nil {
		t.Fatal("unknown subroutine accepted")
	}
}

func TestReportRenders(t *testing.T) {
	c, err := Compile(testSrc, Options{NumProcs: 2, Grain: lmad.Middle})
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Report()
	if !strings.Contains(rep, "grain=middle") || !strings.Contains(rep, "parallel DO I") {
		t.Fatalf("report:\n%s", rep)
	}
}

// The static communication estimate must equal the measured transfer
// time exactly — the advisor is only trustworthy if it prices the same
// plan the runtime executes.
func TestEstimateMatchesMeasured(t *testing.T) {
	for _, grain := range []lmad.Grain{lmad.Fine, lmad.Middle, lmad.Coarse} {
		c, err := Compile(testSrc, Options{NumProcs: 4, Grain: grain})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.RunParallel(Timing)
		if err != nil {
			t.Fatal(err)
		}
		params := cluster.DefaultParams()
		est := postpass.EstimateCommCost(c.SPMD, params)
		if est != res.Report.TotalXferTime() {
			t.Fatalf("grain %v: estimate %v != measured %v", grain, est, res.Report.TotalXferTime())
		}
	}
}

// The estimator must stay exact on the protocol-switched rdma fabric
// too: its simulated registration caches have to replay the runtime's
// eager/rendezvous decisions — including the coalesce stage's
// rendezvous stamps — transfer for transfer, from the node that issues
// them. Under pull-scatter that is the slave, whose own cache the GET
// warms for its later collect of the same region (jacobi and matmul
// collect what they scattered).
func TestEstimateMatchesMeasuredRdma(t *testing.T) {
	params, err := cluster.ParamsForFabric("rdma")
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[string]string{"testSrc": testSrc}
	for _, name := range []string{"jacobi.f", "matmul.f"} {
		b, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		srcs[name] = string(b)
	}
	for name, src := range srcs {
		for _, pull := range []bool{false, true} {
			for _, coalesce := range []bool{false, true} {
				for _, grain := range []lmad.Grain{lmad.Fine, lmad.Middle, lmad.Coarse} {
					c, err := Compile(src, Options{NumProcs: 4, Grain: grain, Fabric: "rdma", Coalesce: coalesce, PullScatter: pull})
					if err != nil {
						t.Fatal(err)
					}
					res, err := c.RunParallel(Timing)
					if err != nil {
						t.Fatal(err)
					}
					est := postpass.EstimateCommCost(c.SPMD, params)
					if est != res.Report.TotalXferTime() {
						t.Errorf("%s grain %v coalesce %v pull %v: estimate %v != measured %v",
							name, grain, coalesce, pull, est, res.Report.TotalXferTime())
					}
				}
			}
		}
	}
}

func TestAutoGrainPicksCheapest(t *testing.T) {
	params := cluster.DefaultParams()
	var costs []struct {
		g lmad.Grain
		t float64
	}
	for _, grain := range []lmad.Grain{lmad.Fine, lmad.Middle, lmad.Coarse} {
		c, err := Compile(testSrc, Options{NumProcs: 4, Grain: grain})
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, struct {
			g lmad.Grain
			t float64
		}{grain, postpass.EstimateCommCost(c.SPMD, params).Seconds()})
	}
	best := costs[0]
	for _, c := range costs[1:] {
		if c.t < best.t {
			best = c
		}
	}
	auto, err := Compile(testSrc, Options{NumProcs: 4, AutoGrain: true})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Grain() != best.g {
		t.Fatalf("AutoGrain chose %v, cheapest is %v (%v)", auto.Grain(), best.g, costs)
	}
}

// Virtual-time determinism: identical compilations and runs must yield
// bit-identical clocks and accounting regardless of goroutine
// scheduling — the property that makes EXPERIMENTS.md reproducible.
func TestVirtualTimeDeterminism(t *testing.T) {
	run := func() (e, x int64) {
		c, err := Compile(testSrc, Options{NumProcs: 4, Grain: lmad.Fine})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.RunParallel(Timing)
		if err != nil {
			t.Fatal(err)
		}
		return int64(res.Elapsed), int64(res.Report.TotalXferTime())
	}
	e0, x0 := run()
	for i := 0; i < 10; i++ {
		e, x := run()
		if e != e0 || x != x0 {
			t.Fatalf("run %d diverged: elapsed %d vs %d, xfer %d vs %d", i, e, e0, x, x0)
		}
	}
}

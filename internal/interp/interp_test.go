package interp

import (
	"math"
	"strings"
	"testing"

	"vbuscluster/internal/analysis"
	"vbuscluster/internal/cluster"
	"vbuscluster/internal/f77"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/postpass"
	"vbuscluster/internal/sim"
)

func compile(t *testing.T, src string) *f77.Program {
	t.Helper()
	prog, err := f77.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := analysis.FrontEnd(prog); err != nil {
		t.Fatalf("front end: %v", err)
	}
	return prog
}

func newCluster(t *testing.T, n int) *cluster.Cluster {
	t.Helper()
	params := cluster.DefaultParams()
	if n > 4 {
		params.MeshWidth, params.MeshHeight = 4, 4
	}
	cl, err := cluster.New(n, params)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// One-shot forms of the Lowered run methods: lower, run once.

func RunSequential(prog *f77.Program, cl *cluster.Cluster, mode Mode) (*Result, error) {
	return Lower(prog).RunSequential(cl, mode)
}

func RunParallel(pp *postpass.Program, cl *cluster.Cluster, mode Mode) (*Result, error) {
	return RunParallelConfig(pp, cl, mode, RunConfig{})
}

func RunParallelConfig(pp *postpass.Program, cl *cluster.Cluster, mode Mode, cfg RunConfig) (*Result, error) {
	return Lower(pp.Source).RunParallel(pp, cl, mode, cfg)
}

func runSeq(t *testing.T, src string, mode Mode) *Result {
	t.Helper()
	prog := compile(t, src)
	res, err := RunSequential(prog, newCluster(t, 1), mode)
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	return res
}

func runPar(t *testing.T, src string, procs int, grain lmad.Grain, mode Mode) *Result {
	t.Helper()
	prog := compile(t, src)
	pp, err := postpass.Translate(prog, postpass.Options{NumProcs: procs, Grain: grain, LiveOutAll: true})
	if err != nil {
		t.Fatalf("postpass: %v", err)
	}
	res, err := RunParallel(pp, newCluster(t, procs), mode)
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	return res
}

func sameArray(t *testing.T, name string, a, b []float64, tol float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol*(1+math.Abs(a[i])) {
			t.Fatalf("%s[%d]: %g vs %g", name, i, a[i], b[i])
		}
	}
}

// ---- Sequential evaluator correctness against native Go oracles ----

const mmN = 12

const mmSrc = `
      PROGRAM MM
      INTEGER N
      PARAMETER (N = 12)
      REAL A(N,N), B(N,N), C(N,N)
      INTEGER I, J, K
      DO I = 1, N
        DO J = 1, N
          A(I,J) = REAL(I+J)
          B(I,J) = REAL(I-J)
          C(I,J) = 0.0
        ENDDO
      ENDDO
      DO I = 1, N
        DO J = 1, N
          DO K = 1, N
            C(I,J) = C(I,J) + A(I,K) * B(K,J)
          ENDDO
        ENDDO
      ENDDO
      PRINT *, C(1,1)
      END
`

func goMM(n int) []float64 {
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	c := make([]float64, n*n)
	at := func(m []float64, i, j int) *float64 { return &m[(i-1)+(j-1)*n] } // column-major
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			*at(a, i, j) = float64(i + j)
			*at(b, i, j) = float64(i - j)
		}
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			for k := 1; k <= n; k++ {
				*at(c, i, j) += *at(a, i, k) * *at(b, k, j)
			}
		}
	}
	return c
}

func TestSequentialMMMatchesOracle(t *testing.T) {
	res := runSeq(t, mmSrc, Full)
	sameArray(t, "C", goMM(mmN), res.Mem["C"], 0)
	if res.Elapsed <= 0 {
		t.Fatal("no virtual time charged")
	}
}

func TestSequentialPrintOutput(t *testing.T) {
	res := runSeq(t, mmSrc, Full)
	if !strings.Contains(res.Output, "\n") {
		t.Fatalf("no output: %q", res.Output)
	}
}

func TestIntegerSemantics(t *testing.T) {
	src := `
      PROGRAM P
      INTEGER I, J, K
      REAL X(12)
      I = 7 / 2
      J = MOD(17, 5)
      X(1) = REAL(I)
      X(2) = REAL(J)
      X(3) = REAL(I**2)
      X(4) = 7.0 / 2.0
      X(5) = REAL(-7 / 2)
      X(6) = 2.0 ** (-1)
      K = -3
      X(7) = REAL(2 ** K)
      X(8) = REAL(1 ** K)
      X(9) = REAL((-1) ** K)
      X(10) = REAL((-1) ** (K + 1))
      X(11) = REAL((-7) ** K)
      X(12) = REAL(3 ** (-K))
      END
`
	res := runSeq(t, src, Full)
	x := res.Mem["X"]
	// INTEGER ** negative INTEGER is 1/(base**|exp|) in truncating
	// division: 0 unless the base is 1 or -1.
	want := []float64{3, 2, 9, 3.5, -3, 0.5, 0, 1, -1, 1, 0, 27}
	sameArray(t, "X", want, x, 1e-12)

	// ... and a division by zero for base 0.
	prog := compile(t, strings.Replace(src, "2 ** K", "(K + 3) ** K", 1))
	_, err := RunSequential(prog, newCluster(t, 1), Full)
	if err == nil || !strings.Contains(err.Error(), "integer division by zero") {
		t.Fatalf("0 ** (-3): error %v, want an integer division by zero", err)
	}
}

// TestDoTripCount: a DO runs max(0, (to − from + step) / step) times
// and leaves its variable one step past the last trip, or at from when
// it runs none: DO K = 5, 4, 2 runs no trip (a count of (to − from) /
// step + 1 ran it once, leaving K at 7).
func TestDoTripCount(t *testing.T) {
	res := runSeq(t, `
      PROGRAM TRIPS
      INTEGER K, N
      REAL X(8)
      N = 0
      DO K = 5, 4, 2
        N = N + 1
        X(8) = 1.0
      ENDDO
      X(1) = REAL(N)
      X(2) = REAL(K)
      N = 0
      DO K = 4, 5, 2
        N = N + 1
      ENDDO
      X(3) = REAL(N)
      X(4) = REAL(K)
      N = 0
      DO K = 10, 1, -3
        N = N + 1
      ENDDO
      X(5) = REAL(N)
      X(6) = REAL(K)
      N = 0
      DO K = 5, 6, -1
        N = N + 1
      ENDDO
      X(7) = REAL(N + K)
      END
`, Full)
	sameArray(t, "X", []float64{0, 5, 1, 6, 4, -2, 5, 0}, res.Mem["X"], 0)
}

func TestIntrinsicEvaluation(t *testing.T) {
	src := `
      PROGRAM P
      REAL X(7)
      X(1) = SQRT(16.0)
      X(2) = ABS(-2.5)
      X(3) = MAX(1.0, 5.0, 3.0)
      X(4) = MIN(1.0, 5.0, 3.0)
      X(5) = SIN(0.0)
      X(6) = COS(0.0)
      X(7) = ATAN(1.0)
      END
`
	res := runSeq(t, src, Full)
	want := []float64{4, 2.5, 5, 1, 0, 1, math.Pi / 4}
	sameArray(t, "X", want, res.Mem["X"], 1e-12)
}

func TestGotoLoop(t *testing.T) {
	src := `
      PROGRAM P
      INTEGER I
      REAL X
      I = 0
      X = 0.0
10    CONTINUE
      I = I + 1
      X = X + 2.0
      IF (I .LT. 5) GOTO 10
      END
`
	res := runSeq(t, src, Full)
	if res.Mem["X"][0] != 10.0 {
		t.Fatalf("X = %v", res.Mem["X"])
	}
}

func TestSubroutineCallByReference(t *testing.T) {
	// Direct execution (not inlined): function and subroutine calls
	// from sequential code.
	src := `
      PROGRAM P
      REAL A(5), S, TOTAL
      INTEGER I
      DO I = 1, 5
        A(I) = REAL(I)
      ENDDO
      S = 0.0
      CALL ACCUM(A, 5, S)
      TOTAL = TWICE(S)
      A(1) = TOTAL
      END

      SUBROUTINE ACCUM(V, N, OUT)
      INTEGER N, I
      REAL V(N), OUT
      DO I = 1, N
        OUT = OUT + V(I)
      ENDDO
      END

      REAL FUNCTION TWICE(X)
      REAL X
      TWICE = 2.0 * X
      END
`
	prog, err := f77.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// Run WITHOUT the front end (no inlining) to exercise CALL frames.
	res, err := RunSequential(prog, newCluster(t, 1), Full)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem["A"][0] != 30.0 {
		t.Fatalf("A(1) = %v, want 30", res.Mem["A"][0])
	}
}

func TestDataStatementApplied(t *testing.T) {
	src := `
      PROGRAM P
      REAL A(4), X
      DATA A /4*2.5/, X /1.25/
      A(1) = A(2) + X
      END
`
	res := runSeq(t, src, Full)
	if res.Mem["A"][0] != 3.75 {
		t.Fatalf("A(1) = %v", res.Mem["A"][0])
	}
}

func TestStopHaltsProgram(t *testing.T) {
	src := `
      PROGRAM P
      REAL X
      X = 1.0
      STOP
      X = 2.0
      END
`
	res := runSeq(t, src, Full)
	if res.Mem["X"][0] != 1.0 {
		t.Fatal("STOP did not halt")
	}
}

func TestOutOfBoundsCaught(t *testing.T) {
	src := `
      PROGRAM P
      REAL A(4)
      INTEGER I
      I = 9
      A(I) = 1.0
      END
`
	prog := compile(t, src)
	if _, err := RunSequential(prog, newCluster(t, 1), Full); err == nil {
		t.Fatal("out-of-bounds access not reported")
	}
}

// ---- Parallel == sequential (the core compiler-correctness gate) ----

func TestParallelMMMatchesSequentialAllGrainsAllProcs(t *testing.T) {
	oracle := goMM(mmN)
	for _, grain := range []lmad.Grain{lmad.Fine, lmad.Middle, lmad.Coarse} {
		for _, procs := range []int{1, 2, 3, 4} {
			res := runPar(t, mmSrc, procs, grain, Full)
			sameArray(t, grain.String()+"/C", oracle, res.Mem["C"], 0)
		}
	}
}

func TestParallelReduction(t *testing.T) {
	src := `
      PROGRAM P
      INTEGER N
      PARAMETER (N = 37)
      REAL A(N), S
      INTEGER I
      DO I = 1, N
        A(I) = REAL(I)
      ENDDO
      S = 100.0
      DO I = 1, N
        S = S + A(I)
      ENDDO
      A(1) = S
      PRINT *, S
      END
`
	want := 100.0 + 37.0*38.0/2.0
	seq := runSeq(t, src, Full)
	if seq.Mem["A"][0] != want {
		t.Fatalf("sequential S = %v, want %v", seq.Mem["A"][0], want)
	}
	for _, procs := range []int{1, 2, 4} {
		res := runPar(t, src, procs, lmad.Coarse, Full)
		if math.Abs(res.Mem["A"][0]-want) > 1e-9 {
			t.Fatalf("procs=%d: S = %v, want %v", procs, res.Mem["A"][0], want)
		}
	}
}

func TestParallelMaxReduction(t *testing.T) {
	src := `
      PROGRAM P
      INTEGER N
      PARAMETER (N = 50)
      REAL A(N), S
      INTEGER I
      DO I = 1, N
        A(I) = REAL(MOD(I*7, 31))
      ENDDO
      S = -1.0
      DO I = 1, N
        S = MAX(S, A(I))
      ENDDO
      A(1) = S
      END
`
	seq := runSeq(t, src, Full)
	par := runPar(t, src, 4, lmad.Fine, Full)
	if seq.Mem["A"][0] != par.Mem["A"][0] {
		t.Fatalf("max reduction diverged: %v vs %v", seq.Mem["A"][0], par.Mem["A"][0])
	}
}

func TestParallelPrivatizedTemp(t *testing.T) {
	src := `
      PROGRAM P
      INTEGER N
      PARAMETER (N = 24)
      REAL A(N), T
      INTEGER I
      DO I = 1, N
        A(I) = REAL(I)
      ENDDO
      DO I = 1, N
        T = A(I) * 2.0
        A(I) = T + 1.0
      ENDDO
      PRINT *, A(N)
      END
`
	seq := runSeq(t, src, Full)
	par := runPar(t, src, 3, lmad.Coarse, Full)
	sameArray(t, "A", seq.Mem["A"], par.Mem["A"], 0)
}

func TestParallelTriangularCyclic(t *testing.T) {
	src := `
      PROGRAM P
      INTEGER N
      PARAMETER (N = 15)
      REAL A(N,N)
      INTEGER I, J
      DO I = 1, N
        DO J = 1, N
          A(I,J) = 0.0
        ENDDO
      ENDDO
      DO I = 1, N
        DO J = I, N
          A(J,I) = REAL(I*100 + J)
        ENDDO
      ENDDO
      PRINT *, A(1,1)
      END
`
	seq := runSeq(t, src, Full)
	for _, procs := range []int{2, 4} {
		par := runPar(t, src, procs, lmad.Fine, Full)
		sameArray(t, "A", seq.Mem["A"], par.Mem["A"], 0)
	}
}

func TestParallelScalarBroadcast(t *testing.T) {
	src := `
      PROGRAM P
      INTEGER N
      PARAMETER (N = 16)
      REAL A(N), X
      INTEGER I
      X = 2.5
      DO I = 1, N
        A(I) = X * REAL(I)
      ENDDO
      PRINT *, A(N)
      END
`
	seq := runSeq(t, src, Full)
	par := runPar(t, src, 4, lmad.Fine, Full)
	sameArray(t, "A", seq.Mem["A"], par.Mem["A"], 0)
}

func TestParallelStride2(t *testing.T) {
	// The CFFT2INIT access shape: interleaved stride-2 writes.
	src := `
      PROGRAM P
      INTEGER N
      PARAMETER (N = 32)
      REAL W(2*N)
      INTEGER I
      DO I = 1, N
        W(2*I-1) = REAL(I)
        W(2*I) = REAL(-I)
      ENDDO
      PRINT *, W(1)
      END
`
	seq := runSeq(t, src, Full)
	for _, grain := range []lmad.Grain{lmad.Fine, lmad.Middle, lmad.Coarse} {
		par := runPar(t, src, 4, grain, Full)
		sameArray(t, "W/"+grain.String(), seq.Mem["W"], par.Mem["W"], 0)
	}
}

func TestParallelInlinedSubroutine(t *testing.T) {
	src := `
      PROGRAM P
      INTEGER N
      PARAMETER (N = 20)
      REAL A(N)
      CALL FILL(A, N)
      PRINT *, A(1)
      END
      SUBROUTINE FILL(V, M)
      INTEGER M, I
      REAL V(M)
      DO I = 1, M
        V(I) = REAL(I) * 3.0
      ENDDO
      END
`
	seq := runSeq(t, src, Full)
	par := runPar(t, src, 4, lmad.Coarse, Full)
	sameArray(t, "A", seq.Mem["A"], par.Mem["A"], 0)
}

func TestSequentialFallbackRegion(t *testing.T) {
	// A recurrence stays sequential inside the SPMD program but must
	// still compute correctly (master executes it).
	src := `
      PROGRAM P
      INTEGER N
      PARAMETER (N = 16)
      REAL A(N)
      INTEGER I
      DO I = 1, N
        A(I) = 1.0
      ENDDO
      DO I = 2, N
        A(I) = A(I-1) + A(I)
      ENDDO
      PRINT *, A(N)
      END
`
	seq := runSeq(t, src, Full)
	par := runPar(t, src, 4, lmad.Fine, Full)
	sameArray(t, "A", seq.Mem["A"], par.Mem["A"], 0)
	if seq.Mem["A"][15] != 16.0 {
		t.Fatalf("prefix sum wrong: %v", seq.Mem["A"][15])
	}
}

// ---- Timing mode ----

func TestTimingModeMatchesFullModeTime(t *testing.T) {
	full := runSeq(t, mmSrc, Full)
	timing := runSeq(t, mmSrc, Timing)
	if full.Elapsed != timing.Elapsed {
		t.Fatalf("timing mode diverged: full %v vs timing %v", full.Elapsed, timing.Elapsed)
	}
}

func TestTimingModeParallelMatchesFull(t *testing.T) {
	for _, grain := range []lmad.Grain{lmad.Fine, lmad.Coarse} {
		full := runPar(t, mmSrc, 4, grain, Full)
		timing := runPar(t, mmSrc, 4, grain, Timing)
		if full.Elapsed != timing.Elapsed {
			t.Fatalf("grain %v: full %v vs timing %v", grain, full.Elapsed, timing.Elapsed)
		}
		if full.Report.MaxCommTime() != timing.Report.MaxCommTime() {
			t.Fatalf("grain %v comm: full %v vs timing %v", grain, full.Report.MaxCommTime(), timing.Report.MaxCommTime())
		}
	}
}

// ---- Shape of the results (mini Table 1) ----

func TestSpeedupGrowsWithProcs(t *testing.T) {
	bigMM := strings.Replace(mmSrc, "N = 12", "N = 64", 1)
	seq := runSeq(t, bigMM, Timing)
	var prev float64
	for _, procs := range []int{1, 2, 4} {
		par := runPar(t, bigMM, procs, lmad.Coarse, Timing)
		speedup := float64(seq.Elapsed) / float64(par.Elapsed)
		if speedup <= prev {
			t.Fatalf("speedup not increasing: %d procs → %.3f (prev %.3f)", procs, speedup, prev)
		}
		prev = speedup
	}
	if prev < 1.5 {
		t.Fatalf("4-proc speedup %.3f too low", prev)
	}
}

func TestSingleProcOverheadSmall(t *testing.T) {
	bigMM := strings.Replace(mmSrc, "N = 12", "N = 64", 1)
	seq := runSeq(t, bigMM, Timing)
	par := runPar(t, bigMM, 1, lmad.Coarse, Timing)
	ratio := float64(seq.Elapsed) / float64(par.Elapsed)
	if ratio >= 1.0 {
		t.Fatalf("1-proc SPMD should be slower than pure sequential (ratio %.3f)", ratio)
	}
	if ratio < 0.80 {
		t.Fatalf("1-proc SPMD overhead too large (ratio %.3f)", ratio)
	}
}

func TestCommTimeAccounted(t *testing.T) {
	res := runPar(t, mmSrc, 4, lmad.Fine, Full)
	if res.Report.MaxCommTime() <= 0 {
		t.Fatal("no communication time recorded")
	}
	if res.Report.TotalCommBytes() <= 0 {
		t.Fatal("no bytes recorded")
	}
}

func TestMasterOutputOnly(t *testing.T) {
	res := runPar(t, mmSrc, 4, lmad.Fine, Full)
	lines := strings.Count(res.Output, "\n")
	if lines != 1 {
		t.Fatalf("expected exactly one PRINT line from the master, got %d:\n%s", lines, res.Output)
	}
}

// §3's lock-based reduction combining must agree with the Allreduce
// scheme and with the sequential result (up to FP reassociation).
func TestLockedReductionsMatch(t *testing.T) {
	src := `
      PROGRAM P
      INTEGER N
      PARAMETER (N = 41)
      REAL A(N), S, M
      INTEGER I
      DO I = 1, N
        A(I) = REAL(MOD(I*13, 17)) - 8.0
      ENDDO
      S = 5.0
      M = -1000.0
      DO I = 1, N
        S = S + A(I)
      ENDDO
      DO I = 1, N
        M = MAX(M, A(I))
      ENDDO
      A(1) = S
      A(2) = M
      END
`
	seq := runSeq(t, src, Full)
	prog := compile(t, src)
	for _, procs := range []int{1, 2, 4} {
		pp, err := postpass.Translate(prog, postpass.Options{
			NumProcs: procs, Grain: lmad.Coarse, LiveOutAll: true, LockReductions: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunParallel(pp, newCluster(t, procs), Full)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Mem["A"][0]-seq.Mem["A"][0]) > 1e-9 {
			t.Fatalf("procs=%d locked sum = %v, want %v", procs, res.Mem["A"][0], seq.Mem["A"][0])
		}
		if res.Mem["A"][1] != seq.Mem["A"][1] {
			t.Fatalf("procs=%d locked max = %v, want %v", procs, res.Mem["A"][1], seq.Mem["A"][1])
		}
	}
}

// The locked scheme serializes on the master: with growing P its
// combine cost should exceed the tree-based Allreduce's.
func TestLockedReductionsCostMore(t *testing.T) {
	src := `
      PROGRAM P
      INTEGER N
      PARAMETER (N = 64)
      REAL A(N), S
      INTEGER I
      DO I = 1, N
        A(I) = 1.0
      ENDDO
      S = 0.0
      DO I = 1, N
        S = S + A(I)
      ENDDO
      A(1) = S
      END
`
	prog := compile(t, src)
	run := func(lock bool) sim.Time {
		pp, err := postpass.Translate(prog, postpass.Options{
			NumProcs: 4, Grain: lmad.Coarse, LiveOutAll: true, LockReductions: lock,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunParallel(pp, newCluster(t, 4), Timing)
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	locked, tree := run(true), run(false)
	if locked <= tree {
		t.Fatalf("locked combine (%v) should cost more than the Allreduce tree (%v)", locked, tree)
	}
}

// The two-sided (MPI-1 SEND/RECEIVE) baseline must compute identical
// results; on contiguous transfer plans it must cost more than the
// one-sided DMA path (pack + unpack + both processors involved -- the
// §2.2 motivation for implementing MPI-2). Strided plans are the one
// case where two-sided can win, because one-sided strided PUT pays the
// programmed-I/O per-element cost while a send packs with plain memory
// copies; the MM correctness check below covers that path too.
func TestTwoSidedMatchesAndCostsMore(t *testing.T) {
	prog := compile(t, mmSrc)
	oracle := goMM(mmN)
	ppTwo, err := postpass.Translate(prog, postpass.Options{
		NumProcs: 4, Grain: lmad.Coarse, LiveOutAll: true, TwoSided: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	two, err := RunParallel(ppTwo, newCluster(t, 4), Full)
	if err != nil {
		t.Fatal(err)
	}
	sameArray(t, "C/two-sided", oracle, two.Mem["C"], 0)

	// Contiguous-plan workload: block-partitioned 1-D elementwise.
	contigSrc := `
      PROGRAM P
      INTEGER N
      PARAMETER (N = 4096)
      REAL A(N), B(N)
      INTEGER I
      DO I = 1, N
        B(I) = REAL(I)
      ENDDO
      DO I = 1, N
        A(I) = B(I) * 2.0
      ENDDO
      PRINT *, A(1)
      END
`
	cprog := compile(t, contigSrc)
	run := func(twoSided bool) sim.Time {
		pp, err := postpass.Translate(cprog, postpass.Options{
			NumProcs: 4, Grain: lmad.Coarse, LiveOutAll: true, TwoSided: twoSided,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunParallel(pp, newCluster(t, 4), Timing)
		if err != nil {
			t.Fatal(err)
		}
		return res.Report.TotalXferTime()
	}
	one, twoT := run(false), run(true)
	if twoT <= one {
		t.Fatalf("two-sided comm (%v) should exceed one-sided (%v) on contiguous plans", twoT, one)
	}
}

func TestTwoSidedAllGrains(t *testing.T) {
	prog := compile(t, mmSrc)
	oracle := goMM(mmN)
	for _, grain := range []lmad.Grain{lmad.Fine, lmad.Middle, lmad.Coarse} {
		for _, procs := range []int{2, 3} {
			pp, err := postpass.Translate(prog, postpass.Options{
				NumProcs: procs, Grain: grain, LiveOutAll: true, TwoSided: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunParallel(pp, newCluster(t, procs), Full)
			if err != nil {
				t.Fatal(err)
			}
			sameArray(t, grain.String(), oracle, res.Mem["C"], 0)
		}
	}
}

// Downward loops: DO I = N, 1, -1 with independent writes must
// parallelize and partition correctly.
func TestParallelDownwardLoop(t *testing.T) {
	src := `
      PROGRAM P
      INTEGER N
      PARAMETER (N = 30)
      REAL A(N)
      INTEGER I
      DO I = N, 1, -1
        A(I) = REAL(I) * 3.0
      ENDDO
      PRINT *, A(1)
      END
`
	seq := runSeq(t, src, Full)
	for _, grain := range []lmad.Grain{lmad.Fine, lmad.Coarse} {
		for _, procs := range []int{2, 4} {
			par := runPar(t, src, procs, grain, Full)
			sameArray(t, "A down "+grain.String(), seq.Mem["A"], par.Mem["A"], 0)
		}
	}
}

// Reversed coefficient: A(N-I+1) maps loop trip k to lattice position
// trips-1-k; the block partition must mirror (postpass CommOp.Reversed).
func TestParallelReversedSubscript(t *testing.T) {
	src := `
      PROGRAM P
      INTEGER N
      PARAMETER (N = 32)
      REAL A(N), B(N)
      INTEGER I
      DO I = 1, N
        B(I) = REAL(I)
      ENDDO
      DO I = 1, N
        A(N-I+1) = B(I) * 2.0
      ENDDO
      PRINT *, A(1)
      END
`
	seq := runSeq(t, src, Full)
	if seq.Mem["A"][31] != 2.0 { // A(32) = B(1)*2
		t.Fatalf("oracle wrong: %v", seq.Mem["A"][31])
	}
	for _, grain := range []lmad.Grain{lmad.Fine, lmad.Middle, lmad.Coarse} {
		for _, procs := range []int{2, 3, 4} {
			par := runPar(t, src, procs, grain, Full)
			sameArray(t, "A rev "+grain.String(), seq.Mem["A"], par.Mem["A"], 0)
		}
	}
}

// Reversed coefficient under a cyclic (triangular) schedule falls back
// to replicated scatters; collects demote via the race check. Either
// way the values must be right.
func TestReversedWithCyclicSchedule(t *testing.T) {
	src := `
      PROGRAM P
      INTEGER N
      PARAMETER (N = 18)
      REAL A(N,N)
      INTEGER I, J
      DO I = 1, N
        DO J = 1, N
          A(I,J) = 0.0
        ENDDO
      ENDDO
      DO I = 1, N
        DO J = I, N
          A(J, N-I+1) = REAL(I*100 + J)
        ENDDO
      ENDDO
      PRINT *, A(1,N)
      END
`
	seq := runSeq(t, src, Full)
	for _, procs := range []int{2, 4} {
		par := runPar(t, src, procs, lmad.Coarse, Full)
		sameArray(t, "A revcyc", seq.Mem["A"], par.Mem["A"], 0)
	}
}

// A parallel loop whose subscripts step by the loop's own stride:
// DO I = 1, N, 4 touching A(I..I+2) — partitions must respect gaps.
func TestParallelStriddenLoop(t *testing.T) {
	src := `
      PROGRAM P
      INTEGER N
      PARAMETER (N = 40)
      REAL A(N+2)
      INTEGER I
      DO I = 1, N+2
        A(I) = -1.0
      ENDDO
      DO I = 1, N, 4
        A(I) = 1.0
        A(I+1) = 2.0
        A(I+2) = 3.0
      ENDDO
      PRINT *, A(1)
      END
`
	seq := runSeq(t, src, Full)
	for _, grain := range []lmad.Grain{lmad.Fine, lmad.Middle, lmad.Coarse} {
		par := runPar(t, src, 4, grain, Full)
		sameArray(t, "A strided-loop "+grain.String(), seq.Mem["A"], par.Mem["A"], 0)
	}
}

// Per-region profiling (§5.6's profiling-tools capability): region
// times must sum to the total and identify the comm-heavy regions.
func TestRegionProfile(t *testing.T) {
	res := runPar(t, mmSrc, 4, lmad.Fine, Full)
	if len(res.Regions) != 3 {
		t.Fatalf("regions = %d, want 3 (init, compute, print)", len(res.Regions))
	}
	if !res.Regions[0].Parallel || !res.Regions[1].Parallel || res.Regions[2].Parallel {
		t.Fatalf("region kinds wrong: %+v", res.Regions)
	}
	var sum sim.Time
	var comm sim.Time
	for _, r := range res.Regions {
		if r.Elapsed < 0 || r.Comm < 0 {
			t.Fatalf("negative profile entry: %+v", r)
		}
		sum += r.Elapsed
		comm += r.Comm
	}
	// Window creation happens before region 0, so regions account for
	// slightly less than the whole run.
	if sum > res.Elapsed {
		t.Fatalf("region elapsed sum %v exceeds total %v", sum, res.Elapsed)
	}
	if float64(sum) < 0.9*float64(res.Elapsed) {
		t.Fatalf("regions account for too little: %v of %v", sum, res.Elapsed)
	}
	if comm != res.Report.TotalXferTime() {
		t.Fatalf("region comm sum %v != total %v", comm, res.Report.TotalXferTime())
	}
	// The compute region (RW C scatter+collect) communicates most.
	if res.Regions[1].Comm <= res.Regions[2].Comm {
		t.Fatal("compute region should out-communicate the print region")
	}
	out := FormatRegions(res.Regions)
	if !strings.Contains(out, "DO I") || !strings.Contains(out, "sequential") {
		t.Fatalf("profile render:\n%s", out)
	}
}

func TestSequentialRunHasNoRegionProfile(t *testing.T) {
	res := runSeq(t, mmSrc, Full)
	if res.Regions != nil {
		t.Fatal("sequential run should not carry a region profile")
	}
}

// COMMON blocks: storage shared between units by position, both under
// direct CALL execution and through inlining + SPMD translation.
func TestCommonBlockSharedStorage(t *testing.T) {
	src := `
      PROGRAM P
      REAL TOTAL, V(5)
      COMMON /ACC/ TOTAL, V
      INTEGER I
      TOTAL = 0.0
      DO I = 1, 5
        V(I) = REAL(I)
      ENDDO
      CALL BUMP
      CALL BUMP
      V(1) = TOTAL
      END

      SUBROUTINE BUMP
      REAL T, W(5)
      COMMON /ACC/ T, W
      INTEGER I
      DO I = 1, 5
        T = T + W(I)
      ENDDO
      END
`
	// Direct execution (no inlining).
	prog, err := f77.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSequential(prog, newCluster(t, 1), Full)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem["V"][0] != 30.0 { // two passes of sum 1..5
		t.Fatalf("direct COMMON total = %v, want 30", res.Mem["V"][0])
	}
	// Inlined + SPMD execution.
	seq := runSeq(t, src, Full)
	if seq.Mem["TOTAL"][0] != 30.0 {
		t.Fatalf("inlined COMMON total = %v", seq.Mem["TOTAL"][0])
	}
	par := runPar(t, src, 2, lmad.Coarse, Full)
	if par.Mem["TOTAL"][0] != 30.0 {
		t.Fatalf("SPMD COMMON total = %v", par.Mem["TOTAL"][0])
	}
}

func TestCommonLayoutMismatchRejected(t *testing.T) {
	src := `
      PROGRAM P
      REAL A(4)
      COMMON /B/ A
      CALL S
      END
      SUBROUTINE S
      REAL X(9)
      COMMON /B/ X
      X(1) = 1.0
      END
`
	prog, err := f77.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := analysis.FrontEnd(prog); err == nil {
		t.Fatal("mismatched COMMON layouts accepted by the inliner")
	}
	// Direct execution must also refuse.
	prog2, _ := f77.Parse(src)
	if _, err := RunSequential(prog2, newCluster(t, 1), Full); err == nil {
		t.Fatal("mismatched COMMON layouts accepted by the interpreter")
	}
}

func TestCommonParallelLoopOverBlockArray(t *testing.T) {
	src := `
      PROGRAM P
      INTEGER N
      PARAMETER (N = 40)
      REAL G(N)
      COMMON /GRID/ G
      CALL INIT
      PRINT *, G(N)
      END
      SUBROUTINE INIT
      INTEGER N, I
      PARAMETER (N = 40)
      REAL G(N)
      COMMON /GRID/ G
      DO I = 1, N
        G(I) = REAL(I) * 1.5
      ENDDO
      END
`
	seq := runSeq(t, src, Full)
	par := runPar(t, src, 4, lmad.Fine, Full)
	sameArray(t, "G", seq.Mem["G"], par.Mem["G"], 0)
	if seq.Mem["G"][39] != 60.0 {
		t.Fatalf("G(40) = %v", seq.Mem["G"][39])
	}
}

// GET-driven (pull) scatter: identical results, and the scatter
// parallelizes across slaves instead of serializing on the master —
// the §2.2 point that either end can drive a one-sided transfer.
func TestPullScatterMatchesAndParallelizes(t *testing.T) {
	prog := compile(t, mmSrc)
	oracle := goMM(mmN)
	run := func(pull bool, mode Mode) *Result {
		pp, err := postpass.Translate(prog, postpass.Options{
			NumProcs: 4, Grain: lmad.Coarse, LiveOutAll: true, PullScatter: pull,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunParallel(pp, newCluster(t, 4), mode)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	pull := run(true, Full)
	sameArray(t, "C/pull", oracle, pull.Mem["C"], 0)
	// Wall-clock: pulling overlaps the three slaves' transfers; pushing
	// serializes them on the master. Elapsed must improve.
	push := run(false, Timing)
	pullT := run(true, Timing)
	if pullT.Elapsed >= push.Elapsed {
		t.Fatalf("pull scatter (%v) should beat push scatter (%v)", pullT.Elapsed, push.Elapsed)
	}
}

func TestPullScatterAllGrains(t *testing.T) {
	prog := compile(t, mmSrc)
	oracle := goMM(mmN)
	for _, grain := range []lmad.Grain{lmad.Fine, lmad.Middle, lmad.Coarse} {
		pp, err := postpass.Translate(prog, postpass.Options{
			NumProcs: 3, Grain: grain, LiveOutAll: true, PullScatter: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunParallel(pp, newCluster(t, 3), Full)
		if err != nil {
			t.Fatal(err)
		}
		sameArray(t, "C/pull/"+grain.String(), oracle, res.Mem["C"], 0)
	}
}

// Coverage sweep: logical expressions, Prod/Min reductions, triangular
// bulk costing, and reversed bulk loops.
func TestLogicalExpressionEvaluation(t *testing.T) {
	src := `
      PROGRAM P
      REAL A(8)
      LOGICAL L
      INTEGER I
      DO I = 1, 8
        A(I) = REAL(I)
      ENDDO
      L = .TRUE.
      IF (L .AND. .NOT. .FALSE.) A(1) = -1.0
      IF (L .OR. .FALSE.) A(2) = -2.0
      IF (A(3) .NE. 3.0) A(3) = 0.0
      IF (3 .EQ. 3 .AND. 2 .LE. 2 .AND. 4 .GE. 3 .AND. 1 .LT. 2) THEN
        A(4) = -4.0
      ENDIF
      END
`
	res := runSeq(t, src, Full)
	want := []float64{-1, -2, 3, -4, 5, 6, 7, 8}
	sameArray(t, "A", want, res.Mem["A"], 0)
}

func TestProdAndMinReductions(t *testing.T) {
	src := `
      PROGRAM P
      INTEGER N
      PARAMETER (N = 10)
      REAL A(N), PR, MN
      INTEGER I
      DO I = 1, N
        A(I) = 1.0 + REAL(I) * 0.1
      ENDDO
      PR = 1.0
      MN = 1.0E30
      DO I = 1, N
        PR = PR * A(I)
      ENDDO
      DO I = 1, N
        MN = MIN(MN, A(I))
      ENDDO
      A(1) = PR
      A(2) = MN
      END
`
	seq := runSeq(t, src, Full)
	for _, lock := range []bool{false, true} {
		prog := compile(t, src)
		pp, err := postpass.Translate(prog, postpass.Options{
			NumProcs: 4, Grain: lmad.Fine, LiveOutAll: true, LockReductions: lock,
		})
		if err != nil {
			t.Fatal(err)
		}
		par, err := RunParallel(pp, newCluster(t, 4), Full)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(par.Mem["A"][0]-seq.Mem["A"][0]) > 1e-9 {
			t.Fatalf("lock=%v product = %v, want %v", lock, par.Mem["A"][0], seq.Mem["A"][0])
		}
		if par.Mem["A"][1] != seq.Mem["A"][1] {
			t.Fatalf("lock=%v min = %v, want %v", lock, par.Mem["A"][1], seq.Mem["A"][1])
		}
	}
}

func TestTriangularBulkCostMatchesFull(t *testing.T) {
	src := `
      PROGRAM P
      INTEGER N
      PARAMETER (N = 20)
      REAL A(N,N)
      INTEGER I, J
      DO I = 1, N
        DO J = I, N
          A(J,I) = REAL(I+J)
        ENDDO
      ENDDO
      PRINT *, A(N,1)
      END
`
	full := runSeq(t, src, Full)
	timing := runSeq(t, src, Timing)
	if full.Elapsed != timing.Elapsed {
		t.Fatalf("triangular bulk cost %v != full %v", timing.Elapsed, full.Elapsed)
	}
}

func TestDownwardBulkCostMatchesFull(t *testing.T) {
	src := `
      PROGRAM P
      REAL A(30)
      INTEGER I
      DO I = 30, 1, -1
        A(I) = REAL(I)
      ENDDO
      END
`
	full := runSeq(t, src, Full)
	timing := runSeq(t, src, Timing)
	if full.Elapsed != timing.Elapsed {
		t.Fatalf("downward bulk %v != full %v", timing.Elapsed, full.Elapsed)
	}
}

func TestIntrinsicsBroadCoverage(t *testing.T) {
	src := `
      PROGRAM P
      REAL X(10)
      X(1) = EXP(0.0) + LOG(1.0) + ALOG(1.0)
      X(2) = TAN(0.0) + ATAN2(0.0, 1.0)
      X(3) = SIGN(3.0, -2.0)
      X(4) = MOD(7.5, 2.0)
      X(5) = DMOD(9.0, 4.0)
      X(6) = NINT(2.6)
      X(7) = REAL(MIN0(4, 2, 9))
      X(8) = REAL(MAX0(4, 2, 9))
      X(9) = AMIN1(1.5, 0.5)
      X(10) = AMAX1(1.5, 0.5)
      END
`
	res := runSeq(t, src, Full)
	want := []float64{1, 0, -3, 1.5, 1, 3, 2, 9, 0.5, 1.5}
	sameArray(t, "X", want, res.Mem["X"], 1e-12)
}

func TestModeString(t *testing.T) {
	if Full.String() != "full" || Timing.String() != "timing" {
		t.Fatal("mode strings")
	}
}

func TestSortedArrayNames(t *testing.T) {
	res := runSeq(t, mmSrc, Full)
	names := res.SortedArrayNames()
	if len(names) == 0 {
		t.Fatal("no names")
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatal("not sorted")
		}
	}
}

// A GOTO whose target is a top-level label must force whole-program
// sequential execution (a cross-region jump would otherwise escape the
// barrier-per-region structure) — and still compute correctly.
func TestTopLevelGotoForcesSequential(t *testing.T) {
	src := `
      PROGRAM P
      REAL A(20), S
      INTEGER I, PASS
      PASS = 0
      S = 0.0
5     CONTINUE
      PASS = PASS + 1
      DO I = 1, 20
        A(I) = REAL(I) * REAL(PASS)
      ENDDO
      IF (PASS .LT. 3) GOTO 5
      DO I = 1, 20
        S = S + A(I)
      ENDDO
      A(1) = S
      END
`
	seq := runSeq(t, src, Full)
	prog := compile(t, src)
	pp, err := postpass.Translate(prog, postpass.Options{NumProcs: 4, Grain: lmad.Coarse, LiveOutAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(pp.Regions) != 1 || pp.Regions[0].Par != nil {
		t.Fatalf("cross-region GOTO should force one sequential region, got %d regions", len(pp.Regions))
	}
	par, err := RunParallel(pp, newCluster(t, 4), Full)
	if err != nil {
		t.Fatal(err)
	}
	sameArray(t, "A", seq.Mem["A"], par.Mem["A"], 0)
	if seq.Mem["A"][0] != 3.0*20*21/2 {
		t.Fatalf("oracle: %v", seq.Mem["A"][0])
	}
}

// STOP inside a sequential region of the SPMD program must halt every
// rank cleanly (via the halt broadcast) with regions before the STOP
// completed and regions after it skipped.
func TestStopInSPMDProgram(t *testing.T) {
	src := `
      PROGRAM P
      REAL A(16), B(16)
      INTEGER I
      DO I = 1, 16
        A(I) = REAL(I)
        B(I) = 0.0
      ENDDO
      STOP
      DO I = 1, 16
        B(I) = 99.0
      ENDDO
      END
`
	for _, procs := range []int{1, 3} {
		par := runPar(t, src, procs, lmad.Fine, Full)
		for i := 0; i < 16; i++ {
			if par.Mem["A"][i] != float64(i+1) {
				t.Fatalf("procs=%d: A not computed before STOP", procs)
			}
			if par.Mem["B"][i] != 0.0 {
				t.Fatalf("procs=%d: region after STOP executed: B[%d]=%v", procs, i, par.Mem["B"][i])
			}
		}
	}
}

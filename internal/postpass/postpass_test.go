package postpass

import (
	"reflect"
	"strings"
	"testing"

	"vbuscluster/internal/analysis"
	"vbuscluster/internal/f77"
	"vbuscluster/internal/lmad"
)

func translate(t *testing.T, src string, opts Options) *Program {
	t.Helper()
	prog, err := f77.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := analysis.FrontEnd(prog); err != nil {
		t.Fatalf("front end: %v", err)
	}
	p, err := Translate(prog, opts)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	return p
}

const mmSrc = `
      PROGRAM MM
      INTEGER N
      PARAMETER (N = 16)
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

func TestMMRegions(t *testing.T) {
	p := translate(t, mmSrc, Options{NumProcs: 4, Grain: lmad.Fine, LiveOutAll: true})
	// init loop (par), compute loop (par), PRINT (seq).
	if len(p.Regions) != 3 {
		t.Fatalf("regions = %d:\n%s", len(p.Regions), p)
	}
	if p.Regions[0].Par == nil || p.Regions[1].Par == nil || p.Regions[2].Par != nil {
		t.Fatalf("region shapes wrong:\n%s", p)
	}
}

func TestMMWindowsCreated(t *testing.T) {
	p := translate(t, mmSrc, Options{NumProcs: 4, Grain: lmad.Fine, LiveOutAll: true})
	names := map[string]bool{}
	for _, w := range p.Windows {
		names[w.Name] = true
	}
	for _, want := range []string{"A", "B", "C"} {
		if !names[want] {
			t.Fatalf("window for %s missing (have %v)", want, names)
		}
	}
}

func TestMMCommClassification(t *testing.T) {
	p := translate(t, mmSrc, Options{NumProcs: 4, Grain: lmad.Fine, LiveOutAll: true})
	compute := p.Regions[1].Par
	// Scatters: A and B (ReadOnly) + C (ReadWrite). Collects: C.
	scatterArrays := map[string]bool{}
	for _, op := range compute.Scatters {
		scatterArrays[op.Sym.Name] = true
	}
	if !scatterArrays["A"] || !scatterArrays["B"] || !scatterArrays["C"] {
		t.Fatalf("scatter set wrong: %v\n%s", scatterArrays, p)
	}
	collectArrays := map[string]bool{}
	for _, op := range compute.Collects {
		collectArrays[op.Sym.Name] = true
	}
	if !collectArrays["C"] || collectArrays["A"] || collectArrays["B"] {
		t.Fatalf("collect set wrong: %v\n%s", collectArrays, p)
	}
}

func TestMMInitLoopWriteFirstNoScatter(t *testing.T) {
	p := translate(t, mmSrc, Options{NumProcs: 4, Grain: lmad.Fine, LiveOutAll: true})
	init := p.Regions[0].Par
	if len(init.Scatters) != 0 {
		t.Fatalf("WriteFirst init loop should scatter nothing:\n%s", p)
	}
	if len(init.Collects) != 3 {
		t.Fatalf("init loop should collect A, B, C:\n%s", p)
	}
}

func TestReplicatedAccessParallelDim(t *testing.T) {
	p := translate(t, mmSrc, Options{NumProcs: 4, Grain: lmad.Fine, LiveOutAll: true})
	compute := p.Regions[1].Par
	for _, op := range compute.Scatters {
		if op.Sym.Name == "B" {
			if op.ParallelDim != -1 {
				t.Fatalf("B(K,J) is invariant in I; ParallelDim = %d", op.ParallelDim)
			}
		}
		if op.Sym.Name == "A" || op.Sym.Name == "C" {
			if op.ParallelDim != 0 {
				t.Fatalf("%s should be partitioned on dim 0, got %d", op.Sym.Name, op.ParallelDim)
			}
		}
	}
}

// §5.6: at coarse grain the per-rank bounding boxes of C's write region
// interleave (row partition of a column-major array), so the race check
// must demote C's collect to fine.
func TestRaceCheckDemotesInterleavedCollect(t *testing.T) {
	p := translate(t, mmSrc, Options{NumProcs: 4, Grain: lmad.Coarse, LiveOutAll: true})
	compute := p.Regions[1].Par
	demoted := false
	for _, op := range compute.Collects {
		if op.Sym.Name == "C" && op.Grain == lmad.Fine && op.RaceFallback {
			demoted = true
		}
	}
	if !demoted {
		t.Fatalf("C collect not demoted to fine:\n%s", p)
	}
	// Scatters keep the requested coarse grain (redundant but safe).
	for _, op := range compute.Scatters {
		if op.Grain != lmad.Coarse {
			t.Fatalf("scatter %s demoted unnecessarily", op.Sym.Name)
		}
	}
}

// Column-partitioned writes have disjoint per-rank boxes: no demotion.
func TestRaceCheckKeepsDisjointCoarse(t *testing.T) {
	src := `
      PROGRAM P
      INTEGER N
      PARAMETER (N = 16)
      REAL C(N,N)
      INTEGER I, J
      DO J = 1, N
        DO I = 1, N
          C(I,J) = 1.0
        ENDDO
      ENDDO
      PRINT *, C(1,1)
      END
`
	p := translate(t, src, Options{NumProcs: 4, Grain: lmad.Coarse, LiveOutAll: true})
	par := p.Regions[0].Par
	for _, op := range par.Collects {
		if op.RaceFallback {
			t.Fatalf("disjoint column partition wrongly demoted:\n%s", p)
		}
	}
}

func TestBlockPart(t *testing.T) {
	var total int64
	for r := 0; r < 4; r++ {
		lo, n := BlockPart(1024, r, 4)
		if n != 256 || lo != int64(r)*256 {
			t.Fatalf("rank %d: [%d,+%d)", r, lo, n)
		}
		total += n
	}
	if total != 1024 {
		t.Fatal("partition does not tile")
	}
	// Uneven: 10 trips over 4 ranks → 2,3,2,3 (balanced).
	var sum int64
	prevEnd := int64(0)
	for r := 0; r < 4; r++ {
		lo, n := BlockPart(10, r, 4)
		if lo != prevEnd {
			t.Fatalf("gap at rank %d", r)
		}
		prevEnd = lo + n
		sum += n
	}
	if sum != 10 {
		t.Fatal("uneven partition does not tile")
	}
}

func TestRankTripsCyclic(t *testing.T) {
	// Trips 1, 5, 9.
	if first, step, count := RankTrips(10, 1, 4, f77.SchedCyclic); first != 1 || step != 4 || count != 3 {
		t.Fatalf("cyclic trips = (%d, %d, %d), want (1, 4, 3)", first, step, count)
	}
	if _, _, count := RankTrips(3, 5, 7, f77.SchedCyclic); count != 0 {
		t.Fatalf("rank past the trip count gets %d trips", count)
	}
}

// The partition invariant from DESIGN.md: block and cyclic tile the
// iteration space exactly — no overlap, no holes — for any trip count
// and process count.
func TestPartitionTilesExactly(t *testing.T) {
	for _, sched := range []f77.Schedule{f77.SchedBlock, f77.SchedCyclic} {
		for trips := int64(0); trips <= 40; trips++ {
			for procs := 1; procs <= 7; procs++ {
				seen := map[int64]int{}
				for r := 0; r < procs; r++ {
					first, step, count := RankTrips(trips, r, procs, sched)
					for i := int64(0); i < count; i++ {
						seen[first+i*step]++
					}
				}
				if int64(len(seen)) != trips {
					t.Fatalf("%v trips=%d procs=%d: covered %d", sched, trips, procs, len(seen))
				}
				for k, n := range seen {
					if n != 1 || k < 0 || k >= trips {
						t.Fatalf("%v trips=%d procs=%d: trip %d count %d", sched, trips, procs, k, n)
					}
				}
			}
		}
	}
}

// Every element of the full access region must be covered by exactly
// the union of rank plans (scatter completeness).
func TestRankPlansCoverRegion(t *testing.T) {
	p := translate(t, mmSrc, Options{NumProcs: 4, Grain: lmad.Fine, LiveOutAll: true})
	compute := p.Regions[1].Par
	for _, op := range compute.Scatters {
		covered := map[int64]bool{}
		for r := 0; r < 4; r++ {
			for _, tr := range RankPlan(op, compute.Ctx, r, 4, compute.Schedule) {
				for i := int64(0); i < tr.Elems; i++ {
					covered[tr.Offset+i*tr.Stride] = true
				}
			}
		}
		for _, off := range op.Acc.L.Enumerate(1 << 20) {
			if !covered[off] {
				t.Fatalf("op %s %s: element %d uncovered", op.Sym.Name, op.Acc.L, off)
			}
		}
	}
}

// A region's covers are built only when first asked for — planning
// alone (a Timing run, the estimator) never makes their table — and
// then hold, entry for entry, the cover of each rank's plans.
func TestRankCoversOnDemand(t *testing.T) {
	p := translate(t, mmSrc, Options{NumProcs: 4, Grain: lmad.Middle, LiveOutAll: true})
	par := p.Regions[1].Par
	for _, dir := range []Direction{Scatter, Collect} {
		for r := 0; r < 4; r++ {
			RankPlans(par, dir, r)
		}
	}
	for dir := range par.plans.tables {
		for i := range par.plans.tables[dir].classes {
			if par.plans.tables[dir].classes[i].covers != nil {
				t.Fatal("planning made a cover")
			}
		}
	}
	for _, dir := range []Direction{Scatter, Collect} {
		for r := 0; r < 4; r++ {
			plans, covers := RankPlans(par, dir, r), RankCovers(par, dir, r)
			if len(covers) != len(plans) {
				t.Fatalf("dir %d rank %d: %d covers for %d plan entries", dir, r, len(covers), len(plans))
			}
			for i, pl := range plans {
				if want := lmad.Cover(pl.Plan); !reflect.DeepEqual(covers[i], want) {
					t.Fatalf("dir %d rank %d entry %d: cover %v, want %v", dir, r, i, covers[i], want)
				}
			}
		}
	}
}

// At fine grain, rank plans of a partitioned WRITE never overlap.
func TestFineCollectPlansDisjoint(t *testing.T) {
	p := translate(t, mmSrc, Options{NumProcs: 4, Grain: lmad.Fine, LiveOutAll: true})
	compute := p.Regions[1].Par
	for _, op := range compute.Collects {
		seen := map[int64]int{}
		for r := 0; r < 4; r++ {
			for _, tr := range RankPlan(op, compute.Ctx, r, 4, compute.Schedule) {
				for i := int64(0); i < tr.Elems; i++ {
					seen[tr.Offset+i*tr.Stride]++
				}
			}
		}
		for off, n := range seen {
			if n > 1 {
				t.Fatalf("op %s: element %d written by %d ranks", op.Sym.Name, off, n)
			}
		}
	}
}

// §5.2 / AVPG: B is written in the init loop and read in the compute
// loop, then dead. With LiveOutAll=false, nothing after the compute
// loop reads A or B, so their compute-loop scatter is still needed but
// the PRINT keeps C alive.
func TestAVPGEliminatesDeadCollects(t *testing.T) {
	src := `
      PROGRAM P
      INTEGER N
      PARAMETER (N = 8)
      REAL A(N), B(N)
      INTEGER I
      DO I = 1, N
        A(I) = 1.0
      ENDDO
      DO I = 1, N
        B(I) = A(I) + 1.0
      ENDDO
      PRINT *, B(1)
      END
`
	p := translate(t, src, Options{NumProcs: 2, Grain: lmad.Fine, LiveOutAll: false})
	// Region 0 writes A (read later: collect). Region 1 writes B (read
	// by PRINT: collect) and reads A (scatter).
	r0 := p.Regions[0].Par
	if len(r0.Collects) != 1 || r0.Collects[0].Sym.Name != "A" {
		t.Fatalf("region 0 collects: %s", p)
	}
	r1 := p.Regions[1].Par
	if len(r1.Scatters) != 1 || r1.Scatters[0].Sym.Name != "A" {
		t.Fatalf("region 1 scatters: %s", p)
	}
	if len(r1.Collects) != 1 || r1.Collects[0].Sym.Name != "B" {
		t.Fatalf("region 1 collects: %s", p)
	}
}

func TestAVPGDeadWriteNoCollect(t *testing.T) {
	src := `
      PROGRAM P
      INTEGER N
      PARAMETER (N = 8)
      REAL A(N), B(N)
      INTEGER I
      DO I = 1, N
        A(I) = 1.0
        B(I) = 2.0
      ENDDO
      DO I = 1, N
        A(I) = A(I) + 1.0
      ENDDO
      PRINT *, A(1)
      END
`
	p := translate(t, src, Options{NumProcs: 2, Grain: lmad.Fine, LiveOutAll: false})
	r0 := p.Regions[0].Par
	for _, op := range r0.Collects {
		if op.Sym.Name == "B" {
			t.Fatalf("dead write of B collected:\n%s", p)
		}
	}
	if p.EliminatedCollects == 0 {
		t.Fatal("no collects eliminated")
	}
}

func TestSerialProgramSingleRegion(t *testing.T) {
	src := `
      PROGRAM P
      REAL A(8)
      INTEGER I
      DO I = 2, 8
        A(I) = A(I-1) + 1.0
      ENDDO
      END
`
	p := translate(t, src, Options{NumProcs: 4, Grain: lmad.Fine, LiveOutAll: true})
	if len(p.Regions) != 1 || p.Regions[0].Par != nil {
		t.Fatalf("recurrence should stay sequential:\n%s", p)
	}
	if len(p.Windows) != 0 {
		t.Fatal("sequential program needs no windows")
	}
}

func TestTriangularCyclicPlans(t *testing.T) {
	src := `
      PROGRAM P
      INTEGER N
      PARAMETER (N = 12)
      REAL A(N,N)
      INTEGER I, J
      DO I = 1, N
        DO J = I, N
          A(J,I) = 1.0
        ENDDO
      ENDDO
      PRINT *, A(1,1)
      END
`
	p := translate(t, src, Options{NumProcs: 3, Grain: lmad.Fine, LiveOutAll: true})
	par := p.Regions[0].Par
	if par == nil {
		t.Fatalf("triangular loop not parallel:\n%s", p)
	}
	if par.Schedule != f77.SchedCyclic {
		t.Fatalf("schedule = %v", par.Schedule)
	}
	// Cyclic rank plans must tile the parallel dimension.
	for _, op := range par.Collects {
		if op.ParallelDim < 0 {
			continue
		}
		seen := map[int64]int{}
		for r := 0; r < 3; r++ {
			for _, tr := range RankPlan(op, par.Ctx, r, 3, par.Schedule) {
				for i := int64(0); i < tr.Elems; i++ {
					seen[tr.Offset+i*tr.Stride]++
				}
			}
		}
		for _, off := range op.Acc.L.Enumerate(1 << 20) {
			if seen[off] == 0 {
				t.Fatalf("cyclic plans miss element %d", off)
			}
		}
	}
}

func TestScalarScatter(t *testing.T) {
	src := `
      PROGRAM P
      INTEGER N
      PARAMETER (N = 8)
      REAL A(N), X
      INTEGER I
      X = 3.5
      DO I = 1, N
        A(I) = X
      ENDDO
      PRINT *, A(1)
      END
`
	p := translate(t, src, Options{NumProcs: 2, Grain: lmad.Fine, LiveOutAll: true})
	var par *ParInfo
	for _, r := range p.Regions {
		if r.Par != nil {
			par = r.Par
		}
	}
	if par == nil {
		t.Fatalf("no parallel region:\n%s", p)
	}
	foundX := false
	for _, op := range par.Scatters {
		if op.Sym.Name == "X" {
			foundX = true
			if op.Acc.L.Rank() != 0 {
				t.Fatal("scalar scatter should be rank 0")
			}
		}
	}
	if !foundX {
		t.Fatalf("scalar X not scattered:\n%s", p)
	}
}

func TestStringReport(t *testing.T) {
	p := translate(t, mmSrc, Options{NumProcs: 4, Grain: lmad.Coarse, LiveOutAll: true})
	out := p.String()
	for _, want := range []string{"parallel DO I", "scatter", "collect", "AVPG eliminated"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// The emitted SPMD listing (the paper's "Parallel Program (Fortran77
// with MPI-2)" artifact) must contain the master/slave structure: MPI
// environment generation, barriers and fences at region boundaries,
// rank-partitioned loop bounds, and PUT-based scatter/collect.
func TestEmitSPMDStructure(t *testing.T) {
	p := translate(t, mmSrc, Options{NumProcs: 4, Grain: lmad.Coarse, LiveOutAll: true})
	out := EmitSPMD(p)
	for _, want := range []string{
		"PROGRAM MM$SPMD",
		"CALL MPI_INIT",
		"CALL MPI_COMM_RANK",
		"CALL MPI_WIN_CREATE(A",
		"CALL MPI_WIN_CREATE(C",
		"IF (MYRANK$ .EQ. 0) THEN",
		"DO DST$ = 1, NPROCS$ - 1",
		"CALL MPI_PUT(",
		"CALL MPI_WIN_FENCE",
		"CALL MPI_BARRIER(MPI_COMM_WORLD, IERR$)",
		"LO$ = (16 * MYRANK$) / NPROCS$",
		"IF (MYRANK$ .NE. 0) THEN",
		"CALL MPI_WIN_FREE",
		"CALL MPI_FINALIZE",
		"(race check -> fine)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("listing missing %q:\n%s", want, out)
		}
	}
}

func TestEmitSPMDReduction(t *testing.T) {
	src := `
      PROGRAM R
      INTEGER N
      PARAMETER (N = 32)
      REAL A(N), S
      INTEGER I
      DO I = 1, N
        A(I) = REAL(I)
      ENDDO
      S = 0.0
      DO I = 1, N
        S = S + A(I)
      ENDDO
      PRINT *, S
      END
`
	p := translate(t, src, Options{NumProcs: 4, Grain: lmad.Fine, LiveOutAll: true})
	out := EmitSPMD(p)
	if !strings.Contains(out, "CALL MPI_ALLREDUCE(MPI_IN_PLACE, S, 1, MPI_REAL,") {
		t.Fatalf("reduction call missing:\n%s", out)
	}
	if !strings.Contains(out, "S = 0.0") {
		t.Fatalf("identity initialization missing:\n%s", out)
	}
}

func TestEmitSPMDCyclic(t *testing.T) {
	src := `
      PROGRAM C
      INTEGER N
      PARAMETER (N = 12)
      REAL A(N,N)
      INTEGER I, J
      DO I = 1, N
        DO J = I, N
          A(J,I) = 1.0
        ENDDO
      ENDDO
      PRINT *, A(1,1)
      END
`
	p := translate(t, src, Options{NumProcs: 3, Grain: lmad.Fine, LiveOutAll: true})
	out := EmitSPMD(p)
	if !strings.Contains(out, "DO K$ = MYRANK$, 11, NPROCS$") {
		t.Fatalf("cyclic partition loop missing:\n%s", out)
	}
}

func TestEmitSPMDStridedVector(t *testing.T) {
	// MM's fine-grain C collect uses strided PUTs → vector type.
	p := translate(t, mmSrc, Options{NumProcs: 4, Grain: lmad.Fine, LiveOutAll: true})
	out := EmitSPMD(p)
	if !strings.Contains(out, "VECT$16") {
		t.Fatalf("strided vector-type PUT missing:\n%s", out)
	}
}

// TestInexactWriteIsScattered: a triangle's write covers only part of
// the hull its descriptor spans, so its collect ships cells the rank
// never wrote; the slave must hold the master's values of them first.
// The write was WriteFirst, with no scatter: four ranks printed M(1,10)
// as 0 where the sequential run prints 7.
func TestInexactWriteIsScattered(t *testing.T) {
	p := translate(t, `
      PROGRAM WTRI
      REAL M(10,10)
      INTEGER I, J
      DO I = 1, 10
        DO J = 1, 10
          M(J,I) = 7.0
        ENDDO
      ENDDO
      DO I = 1, 10
        DO J = I, 10
          M(J,I) = 1.0
        ENDDO
      ENDDO
      PRINT *, M(1,10), M(10,10)
      END
`, Options{NumProcs: 4, Grain: lmad.Coarse, LiveOutAll: true})
	par := p.Regions[1].Par
	if par == nil {
		t.Fatalf("the triangle is no parallel region:\n%s", p)
	}
	if len(par.Scatters) != 1 || par.Scatters[0].Type != lmad.ReadWrite || len(par.Collects) != 1 || par.Collects[0].Type != lmad.ReadWrite {
		t.Fatalf("the triangle's write is not ReadWrite, scattered and collected:\n%s", p)
	}
}

// TestOneTripLoopIsNoRegion: a loop of fewer than two trips runs on the
// master. As a parallel region, every rank without the iteration still
// collected the element it stores, racing the one that wrote it.
func TestOneTripLoopIsNoRegion(t *testing.T) {
	for _, loop := range []string{"DO I = 3, 3", "DO I = 3, 2", "DO I = 4, 3, 2"} {
		p := translate(t, `
      PROGRAM ONE
      REAL X(64)
      INTEGER I
      `+loop+`
        X(53) = REAL(I)
      ENDDO
      PRINT *, X(53)
      END
`, Options{NumProcs: 4, Grain: lmad.Coarse, LiveOutAll: true})
		for _, r := range p.Regions {
			if r.Par != nil {
				t.Errorf("%s is a parallel region:\n%s", loop, p)
			}
		}
	}
}

// TestDirectiveLoopWithoutFrontEnd: a loop marked by a !$PAR directive
// in a program that never ran parallel-detect carries no record;
// partition builds one and splits the loop.
func TestDirectiveLoopWithoutFrontEnd(t *testing.T) {
	prog, err := f77.Parse(`
      PROGRAM DIR
      REAL X(64)
      INTEGER I
!$PAR
      DO I = 1, 64
        X(I) = REAL(I)
      ENDDO
      PRINT *, X(53)
      END
`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Translate(prog, Options{NumProcs: 4, Grain: lmad.Fine, LiveOutAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Regions) < 1 || p.Regions[0].Par == nil || len(p.Regions[0].Par.Collects) != 1 {
		t.Fatalf("the directive's loop is not a parallel region with one collect:\n%s", p)
	}
}

package analysis

import (
	"fmt"
	"testing"

	"vbuscluster/internal/f77"
	"vbuscluster/internal/lmad"
)

func parse(t *testing.T, src string) *f77.Program {
	t.Helper()
	p, err := f77.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func frontEnd(t *testing.T, src string) *f77.Unit {
	t.Helper()
	p := parse(t, src)
	if err := FrontEnd(p); err != nil {
		t.Fatalf("front end: %v", err)
	}
	return p.Main()
}

func firstLoop(t *testing.T, u *f77.Unit) *f77.DoLoop {
	t.Helper()
	for _, s := range u.Body {
		if l, ok := s.(*f77.DoLoop); ok {
			return l
		}
	}
	t.Fatal("no loop found")
	return nil
}

func loopOf(t *testing.T, u *f77.Unit, v string) *f77.DoLoop {
	t.Helper()
	var found *f77.DoLoop
	f77.WalkStmts(u.Body, func(s f77.Stmt) bool {
		if l, ok := s.(*f77.DoLoop); ok && l.Var.Name == v && found == nil {
			found = l
		}
		return true
	})
	if found == nil {
		t.Fatalf("no loop over %s", v)
	}
	return found
}

// ---- Affine extraction ----

func TestExtractAffine(t *testing.T) {
	src := `
      PROGRAM P
      INTEGER N
      PARAMETER (N = 10)
      REAL A(100)
      INTEGER I, J
      DO I = 1, 10
        DO J = 1, 10
          A(2*I + 3*J - 1 + N) = 0.0
        ENDDO
      ENDDO
      END
`
	u := parse(t, src).Main()
	loop := firstLoop(t, u)
	inner := loop.Body[0].(*f77.DoLoop)
	asg := inner.Body[0].(*f77.Assign)
	loops := []LoopCtx{{Var: loop.Var}, {Var: inner.Var}}
	aff, ok := ExtractAffine(asg.LHS.Subs[0], loops)
	if !ok {
		t.Fatal("affine extraction failed")
	}
	if aff.Const != 9 { // -1 + N
		t.Fatalf("const = %d", aff.Const)
	}
	if aff.Coeff(loop.Var) != 2 || aff.Coeff(inner.Var) != 3 {
		t.Fatalf("terms = %v", aff.Terms)
	}
}

func TestExtractAffineRejectsNonlinear(t *testing.T) {
	src := `
      PROGRAM P
      REAL A(100)
      INTEGER I
      DO I = 1, 10
        A(I*I) = 0.0
      ENDDO
      END
`
	u := parse(t, src).Main()
	loop := firstLoop(t, u)
	asg := loop.Body[0].(*f77.Assign)
	if _, ok := ExtractAffine(asg.LHS.Subs[0], []LoopCtx{{Var: loop.Var}}); ok {
		t.Fatal("I*I extracted as affine")
	}
}

// Edge cases of the term-slice affine form, through ExtractAffine and
// BuildAccess: terms that cancel keep a zero coefficient and give no
// dimension, and a form whose terms all cancel counts as a constant
// factor, divisor or power; terms that combine add up, a PARAMETER
// folds into the constant, and products of variables, a variable
// divided or intrinsic calls still fail.
func TestAffineEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		sub            string
		ok             bool
		constant, i, j int64 // of the subscript
		iDim           bool  // the access has a dimension for I
	}{
		{sub: "I - I + J", ok: true, j: 1},
		{sub: "2*I - I", ok: true, i: 1, iDim: true},
		{sub: "-(J - 2*I) + 3*J", ok: true, i: 2, j: 2, iDim: true},
		{sub: "I + K", ok: true, constant: 7, i: 1, iDim: true},
		{sub: "K*I - 6*I + J", ok: true, i: 1, j: 1, iDim: true},
		{sub: "(I - I)*J", ok: true},
		{sub: "J*(I - I)", ok: true},
		{sub: "(I - I + 6)/3 + (J - J + 2)**3", ok: true, constant: 10},
		{sub: "I/2"},
		{sub: "I*I"},
		{sub: "MOD(I,2)"},
		{sub: "I*J"},
	} {
		src := fmt.Sprintf(`
      PROGRAM P
      INTEGER K
      PARAMETER (K = 7)
      REAL A(400), X
      INTEGER I, J
      DO I = 1, 10
        DO J = 1, 10
          A(%s + 100) = 0.0
        ENDDO
      ENDDO
      X = 1.0
      END
`, tc.sub)
		u := parse(t, src).Main()
		outer := firstLoop(t, u)
		inner := outer.Body[0].(*f77.DoLoop)
		asg := inner.Body[0].(*f77.Assign)
		octx, err := ResolveLoop(outer, nil)
		if err != nil {
			t.Fatal(err)
		}
		ictx, err := ResolveLoop(inner, []LoopCtx{octx})
		if err != nil {
			t.Fatal(err)
		}
		loops := []LoopCtx{octx, ictx}
		aff, ok := ExtractAffine(asg.LHS.Subs[0], loops)
		acc, accOK := BuildAccess(asg.LHS.Sym, asg.LHS.Subs, loops)
		if ok != tc.ok || accOK != tc.ok {
			t.Errorf("A(%s + 100): ExtractAffine ok=%v, BuildAccess ok=%v, want %v", tc.sub, ok, accOK, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if aff.Const != tc.constant+100 || aff.Coeff(outer.Var) != tc.i || aff.Coeff(inner.Var) != tc.j {
			t.Errorf("A(%s + 100): affine %d + %d·I + %d·J, want %d + %d·I + %d·J",
				tc.sub, aff.Const, aff.Coeff(outer.Var), aff.Coeff(inner.Var), tc.constant+100, tc.i, tc.j)
		}
		if acc.Coeff(outer.Var) != tc.i || acc.Coeff(inner.Var) != tc.j {
			t.Errorf("A(%s + 100): access coefficients I=%d J=%d, want %d, %d", tc.sub, acc.Coeff(outer.Var), acc.Coeff(inner.Var), tc.i, tc.j)
		}
		if got := acc.DimOf(outer.Var) >= 0; got != tc.iDim {
			t.Errorf("A(%s + 100): dimension for I = %v, want %v (%v)", tc.sub, got, tc.iDim, acc.L)
		}
		// A symbol that is no loop variable has no coefficient, whether
		// it is a PARAMETER, a scalar or the array itself.
		for _, name := range []string{"K", "X", "A"} {
			if c := acc.Coeff(u.Syms.Lookup(name)); c != 0 {
				t.Errorf("A(%s + 100): coefficient of %s = %d, want 0", tc.sub, name, c)
			}
		}
	}
}

// ---- LMAD construction from references ----

// Figure 2: DO i=1,11,2 / A(i).
func TestBuildAccessFigure2(t *testing.T) {
	src := `
      PROGRAM P
      REAL A(11)
      INTEGER I
      DO I = 1, 11, 2
        A(I) = 0.0
      ENDDO
      END
`
	u := parse(t, src).Main()
	loop := firstLoop(t, u)
	ctx, err := ResolveLoop(loop, nil)
	if err != nil {
		t.Fatal(err)
	}
	asg := loop.Body[0].(*f77.Assign)
	acc, ok := BuildAccess(asg.LHS.Sym, asg.LHS.Subs, []LoopCtx{ctx})
	if !ok {
		t.Fatal("access build failed")
	}
	if acc.L.String() != "A^{2}_{10}+0" {
		t.Fatalf("LMAD = %s", acc.L)
	}
}

// Figure 3: A(I*2-1), I=1..4 → stride 2, offsets 0..6.
func TestBuildAccessFigure3(t *testing.T) {
	src := `
      PROGRAM P
      REAL A(13)
      INTEGER I
      DO I = 1, 4
        A(I*2-1) = 0.0
      ENDDO
      END
`
	u := parse(t, src).Main()
	loop := firstLoop(t, u)
	ctx, _ := ResolveLoop(loop, nil)
	asg := loop.Body[0].(*f77.Assign)
	acc, _ := BuildAccess(asg.LHS.Sym, asg.LHS.Subs, []LoopCtx{ctx})
	if acc.L.String() != "A^{2}_{6}+0" {
		t.Fatalf("LMAD = %s", acc.L)
	}
}

// Figure 4: REAL A(14,*), A(K, J+26*(I-1)) in a triple nest.
func TestBuildAccessFigure4(t *testing.T) {
	src := `
      SUBROUTINE S(A)
      REAL A(14,*)
      INTEGER I, J, K
      DO I = 1, 2
        DO J = 1, 2
          DO K = 1, 10, 3
            A(K, J+26*(I-1)) = 0.0
          ENDDO
        ENDDO
      ENDDO
      END
`
	u := parse(t, src).Units[0]
	li := firstLoop(t, u)
	lj := li.Body[0].(*f77.DoLoop)
	lk := lj.Body[0].(*f77.DoLoop)
	ci, _ := ResolveLoop(li, nil)
	cj, _ := ResolveLoop(lj, []LoopCtx{ci})
	ck, _ := ResolveLoop(lk, []LoopCtx{ci, cj})
	asg := lk.Body[0].(*f77.Assign)
	acc, ok := BuildAccess(asg.LHS.Sym, asg.LHS.Subs, []LoopCtx{ci, cj, ck})
	if !ok {
		t.Fatal("build failed")
	}
	if acc.L.String() != "A^{364,14,3}_{364,14,9}+0" {
		t.Fatalf("LMAD = %s", acc.L)
	}
	if acc.DimOf(li.Var) != 0 || acc.DimOf(lj.Var) != 1 || acc.DimOf(lk.Var) != 2 {
		t.Fatalf("dim-loop mapping wrong: %v", acc.DimLoop)
	}
}

func TestBuildAccessColumnMajor(t *testing.T) {
	src := `
      PROGRAM P
      REAL A(8,8)
      INTEGER I, J
      DO I = 1, 8
        DO J = 1, 8
          A(I,J) = 0.0
        ENDDO
      ENDDO
      END
`
	u := parse(t, src).Main()
	li := firstLoop(t, u)
	lj := li.Body[0].(*f77.DoLoop)
	ci, _ := ResolveLoop(li, nil)
	cj, _ := ResolveLoop(lj, []LoopCtx{ci})
	asg := lj.Body[0].(*f77.Assign)
	acc, _ := BuildAccess(asg.LHS.Sym, asg.LHS.Subs, []LoopCtx{ci, cj})
	// Column-major: I strides 1 (span 7), J strides 8 (span 56).
	if acc.L.String() != "A^{1,8}_{7,56}+0" {
		t.Fatalf("LMAD = %s", acc.L)
	}
}

// ---- Summary sets (Figure 5 structure) ----

func TestRegionSummaryClassification(t *testing.T) {
	src := `
      PROGRAM P
      REAL A(10), B(10), C(10)
      INTEGER I
      DO I = 1, 10
        A(I) = B(I) + 1.0
        C(I) = C(I) * 2.0
      ENDDO
      END
`
	u := parse(t, src).Main()
	loop := firstLoop(t, u)
	ctx, _ := ResolveLoop(loop, nil)
	ri := Region(loop.Body, []LoopCtx{ctx}, map[*f77.Symbol]bool{loop.Var: true})
	if !ri.OK {
		t.Fatalf("region unanalyzable: %s", ri.WhyNot)
	}
	if n := len(ri.Summary().ByArray(lmad.WriteFirst, "A")); n != 1 {
		t.Fatalf("A WriteFirst count = %d\n%s", n, ri.Summary())
	}
	if n := len(ri.Summary().ByArray(lmad.ReadOnly, "B")); n != 1 {
		t.Fatalf("B ReadOnly count = %d\n%s", n, ri.Summary())
	}
	if n := len(ri.Summary().ByArray(lmad.ReadWrite, "C")); n == 0 {
		t.Fatalf("C not ReadWrite:\n%s", ri.Summary())
	}
}

func TestRegionUnanalyzableOnCall(t *testing.T) {
	src := `
      PROGRAM P
      REAL A(10)
      INTEGER I
      DO I = 1, 10
        CALL S(A)
      ENDDO
      END
      SUBROUTINE S(A)
      REAL A(10)
      A(1) = 0.0
      END
`
	u := parse(t, src).Main()
	loop := firstLoop(t, u)
	ctx, _ := ResolveLoop(loop, nil)
	ri := Region(loop.Body, []LoopCtx{ctx}, nil)
	if ri.OK {
		t.Fatal("CALL region reported analyzable")
	}
}

// ---- Parallelism detection ----

func TestSimpleLoopParallel(t *testing.T) {
	u := frontEnd(t, `
      PROGRAM P
      REAL A(100), B(100)
      INTEGER I
      DO I = 1, 100
        A(I) = B(I) + 1.0
      ENDDO
      END
`)
	if !firstLoop(t, u).Parallel {
		t.Fatal("independent loop not parallel")
	}
}

func TestRecurrenceSerial(t *testing.T) {
	u := frontEnd(t, `
      PROGRAM P
      REAL A(100)
      INTEGER I
      DO I = 2, 100
        A(I) = A(I-1) + 1.0
      ENDDO
      END
`)
	if firstLoop(t, u).Parallel {
		t.Fatal("flow-dependent recurrence marked parallel")
	}
}

func TestOffsetWriteSerial(t *testing.T) {
	u := frontEnd(t, `
      PROGRAM P
      REAL A(101)
      INTEGER I
      DO I = 1, 100
        A(I) = A(I+1) + 1.0
      ENDDO
      END
`)
	if firstLoop(t, u).Parallel {
		t.Fatal("anti-dependent loop marked parallel")
	}
}

// TestDistanceTwoRecurrenceSerial: A(I+2) = A(I) + 1.0 carries a flow
// dependence at distance 2 between two regions one element wide. The
// distance bound once summed the regions' widths, 0, tried distance 1
// alone and marked the loop parallel; four ranks then printed "2 12"
// where the sequential run prints "25 45" (core's soundness cases).
func TestDistanceTwoRecurrenceSerial(t *testing.T) {
	u := frontEnd(t, `
      PROGRAM P
      REAL A(100)
      INTEGER I
      DO I = 1, 90
        A(I+2) = A(I) + 1.0
      ENDDO
      END
`)
	if firstLoop(t, u).Parallel {
		t.Fatal("distance-2 recurrence marked parallel")
	}
}

func TestStridedDisjointParallel(t *testing.T) {
	u := frontEnd(t, `
      PROGRAM P
      REAL A(200)
      INTEGER I
      DO I = 1, 100
        A(2*I) = A(2*I-1) + 1.0
      ENDDO
      END
`)
	if !firstLoop(t, u).Parallel {
		t.Fatal("even-write odd-read loop should be parallel")
	}
}

func TestMMOuterLoopParallel(t *testing.T) {
	u := frontEnd(t, `
      PROGRAM MM
      INTEGER N
      PARAMETER (N = 16)
      REAL A(N,N), B(N,N), C(N,N)
      INTEGER I, J, K
      DO I = 1, N
        DO J = 1, N
          C(I,J) = 0.0
          DO K = 1, N
            C(I,J) = C(I,J) + A(I,K) * B(K,J)
          ENDDO
        ENDDO
      ENDDO
      END
`)
	loop := firstLoop(t, u)
	if !loop.Parallel {
		t.Fatal("MM outer loop should be parallel")
	}
	if loop.Schedule != f77.SchedBlock {
		t.Fatalf("MM schedule = %v, want block", loop.Schedule)
	}
	inner := loopOf(t, u, "J")
	if !inner.Parallel {
		t.Fatal("MM J loop should also be parallel")
	}
}

func TestScalarWriteSerial(t *testing.T) {
	u := frontEnd(t, `
      PROGRAM P
      REAL A(100), S
      INTEGER I
      S = 0.0
      DO I = 1, 100
        S = A(I)
      ENDDO
      A(1) = S
      END
`)
	if loopOf(t, u, "I").Parallel {
		t.Fatal("live-out scalar write marked parallel")
	}
}

// ---- Reductions ----

func TestSumReductionRecognized(t *testing.T) {
	u := frontEnd(t, `
      PROGRAM P
      REAL A(100), S
      INTEGER I
      S = 0.0
      DO I = 1, 100
        S = S + A(I)
      ENDDO
      A(1) = S
      END
`)
	loop := loopOf(t, u, "I")
	if len(loop.Reductions) != 1 || loop.Reductions[0].Op != "+" || loop.Reductions[0].Sym.Name != "S" {
		t.Fatalf("reductions = %+v", loop.Reductions)
	}
	if !loop.Parallel {
		t.Fatal("reduction loop should be parallel")
	}
}

func TestMaxReductionRecognized(t *testing.T) {
	u := frontEnd(t, `
      PROGRAM P
      REAL A(100), S
      INTEGER I
      S = A(1)
      DO I = 1, 100
        S = MAX(S, A(I))
      ENDDO
      A(1) = S
      END
`)
	loop := loopOf(t, u, "I")
	if len(loop.Reductions) != 1 || loop.Reductions[0].Op != "MAX" {
		t.Fatalf("reductions = %+v", loop.Reductions)
	}
	if !loop.Parallel {
		t.Fatal("max-reduction loop should be parallel")
	}
}

// TestIntrinsicReductionOps: of the intrinsics on the accumulator only
// the MIN and MAX families combine in any order; MOD, SIGN and ATAN2
// of the running value are recurrences, and the loop stays serial.
func TestIntrinsicReductionOps(t *testing.T) {
	for _, tc := range []struct{ call, op string }{
		{"MIN(S, A(I))", "MIN"},
		{"AMIN1(A(I), S)", "MIN"},
		{"MIN0(S, A(I))", "MIN"},
		{"MAX(A(I), S)", "MAX"},
		{"AMAX1(S, A(I))", "MAX"},
		{"MAX0(S, A(I))", "MAX"},
		{"MOD(S, A(I))", ""},
		{"SIGN(S, A(I))", ""},
		{"ATAN2(S, A(I))", ""},
	} {
		u := frontEnd(t, `
      PROGRAM P
      REAL A(100), S
      INTEGER I
      S = A(1)
      DO I = 1, 100
        S = `+tc.call+`
      ENDDO
      A(1) = S
      END
`)
		loop := loopOf(t, u, "I")
		if tc.op == "" {
			if len(loop.Reductions) != 0 || loop.Parallel {
				t.Errorf("S = %s: reductions %+v, parallel %v; want a serial loop", tc.call, loop.Reductions, loop.Parallel)
			}
			continue
		}
		if len(loop.Reductions) != 1 || loop.Reductions[0].Op != tc.op || !loop.Parallel {
			t.Errorf("S = %s: reductions %+v, parallel %v; want one %s reduction", tc.call, loop.Reductions, loop.Parallel, tc.op)
		}
	}
}

func TestReductionVarOtherUseDisqualifies(t *testing.T) {
	u := frontEnd(t, `
      PROGRAM P
      REAL A(100), S
      INTEGER I
      S = 0.0
      DO I = 1, 100
        S = S + A(I)
        A(I) = S
      ENDDO
      END
`)
	loop := loopOf(t, u, "I")
	if len(loop.Reductions) != 0 {
		t.Fatalf("S misrecognized as reduction despite other use")
	}
	if loop.Parallel {
		t.Fatal("prefix-sum pattern marked parallel")
	}
}

// ---- Privatization ----

func TestPrivatizableScalar(t *testing.T) {
	u := frontEnd(t, `
      PROGRAM P
      REAL A(100), T
      INTEGER I
      DO I = 1, 100
        T = A(I) * 2.0
        A(I) = T + 1.0
      ENDDO
      END
`)
	loop := loopOf(t, u, "I")
	found := false
	for _, p := range loop.Private {
		if p.Name == "T" {
			found = true
		}
	}
	if !found {
		t.Fatalf("T not privatized: %v", Explain(loop))
	}
	if !loop.Parallel {
		t.Fatal("loop with privatizable temp should be parallel")
	}
}

func TestReadFirstScalarNotPrivate(t *testing.T) {
	u := frontEnd(t, `
      PROGRAM P
      REAL A(100), T
      INTEGER I
      T = 0.0
      DO I = 1, 100
        A(I) = T
        T = A(I) + 1.0
      ENDDO
      END
`)
	loop := loopOf(t, u, "I")
	for _, p := range loop.Private {
		if p.Name == "T" {
			t.Fatal("read-first scalar wrongly privatized")
		}
	}
	if loop.Parallel {
		t.Fatal("loop-carried scalar dependence marked parallel")
	}
}

func TestConditionalWriteNotPrivate(t *testing.T) {
	u := frontEnd(t, `
      PROGRAM P
      REAL A(100), T
      INTEGER I
      T = 0.0
      DO I = 1, 100
        IF (A(I) .GT. 0.0) THEN
          T = A(I)
        ENDIF
        A(I) = T
      ENDDO
      END
`)
	loop := loopOf(t, u, "I")
	for _, p := range loop.Private {
		if p.Name == "T" {
			t.Fatal("conditionally-written scalar wrongly privatized")
		}
	}
}

// ---- Induction substitution ----

func TestInductionSubstitution(t *testing.T) {
	u := frontEnd(t, `
      PROGRAM P
      REAL A(200)
      INTEGER I, K
      K = 0
      DO I = 1, 100
        K = K + 2
        A(K) = 1.0
      ENDDO
      A(1) = REAL(K)
      END
`)
	loop := loopOf(t, u, "I")
	// After substitution the loop body has one assignment with an
	// affine subscript, and the loop is parallel (stride-2 writes).
	if !loop.Parallel {
		t.Fatalf("induction loop not parallelized: %s", Explain(loop))
	}
	// K must carry its final value 200 after the loop.
	foundFinal := false
	for _, s := range u.Body {
		if a, ok := s.(*f77.Assign); ok && a.LHS.Sym.Name == "K" {
			foundFinal = true
		}
	}
	if !foundFinal {
		t.Fatal("final value assignment for K missing")
	}
}

func TestInductionNotSubstitutedWithStep(t *testing.T) {
	// Step-2 loops keep the induction (closed form needs division).
	u := frontEnd(t, `
      PROGRAM P
      REAL A(200)
      INTEGER I, K
      K = 0
      DO I = 1, 100, 2
        K = K + 2
        A(K) = 1.0
      ENDDO
      END
`)
	loop := loopOf(t, u, "I")
	if loop.Parallel {
		t.Fatal("unsubstituted induction loop cannot be parallel")
	}
}

// ---- Triangular detection ----

func TestTriangularCyclicSchedule(t *testing.T) {
	u := frontEnd(t, `
      PROGRAM P
      REAL A(64,64)
      INTEGER I, J
      DO I = 1, 64
        DO J = I, 64
          A(J,I) = 1.0
        ENDDO
      ENDDO
      END
`)
	loop := loopOf(t, u, "I")
	if !loop.Triangular {
		t.Fatal("triangular nest not detected")
	}
	if loop.Schedule != f77.SchedCyclic {
		t.Fatalf("schedule = %v, want cyclic", loop.Schedule)
	}
	if !loop.Parallel {
		t.Fatalf("triangular writes to distinct columns should be parallel: %s", Explain(loop))
	}
}

// ---- Inlining ----

func TestInlineSimpleCall(t *testing.T) {
	u := frontEnd(t, `
      PROGRAM P
      INTEGER N
      PARAMETER (N = 32)
      REAL A(N)
      CALL FILL(A, N)
      END

      SUBROUTINE FILL(V, M)
      INTEGER M, I
      REAL V(M)
      DO I = 1, M
        V(I) = 2.0
      ENDDO
      END
`)
	// After inlining there is a DO loop in main, no CALL.
	hasCall := false
	f77.WalkStmts(u.Body, func(s f77.Stmt) bool {
		if _, ok := s.(*f77.CallStmt); ok {
			hasCall = true
		}
		return true
	})
	if hasCall {
		t.Fatal("CALL not inlined")
	}
	loop := firstLoop(t, u)
	if !loop.Parallel {
		t.Fatalf("inlined fill loop not parallel: %s", Explain(loop))
	}
	// The loop writes A (the actual), not V.
	asg := loop.Body[0].(*f77.Assign)
	if asg.LHS.Sym.Name != "A" {
		t.Fatalf("dummy not bound: writes %s", asg.LHS.Sym.Name)
	}
}

func TestInlineExpressionArg(t *testing.T) {
	u := frontEnd(t, `
      PROGRAM P
      REAL A(10)
      CALL SETV(A, 2.0 + 3.0)
      END

      SUBROUTINE SETV(V, X)
      REAL V(10), X
      INTEGER I
      DO I = 1, 10
        V(I) = X
      ENDDO
      END
`)
	// The expression actual materializes into a temp assignment.
	if _, ok := u.Body[0].(*f77.Assign); !ok {
		t.Fatalf("expected temp assignment first, got %T", u.Body[0])
	}
}

func TestInlineTransitive(t *testing.T) {
	u := frontEnd(t, `
      PROGRAM P
      REAL A(10)
      CALL OUTER(A)
      END
      SUBROUTINE OUTER(V)
      REAL V(10)
      CALL INNER(V)
      END
      SUBROUTINE INNER(W)
      REAL W(10)
      INTEGER I
      DO I = 1, 10
        W(I) = 1.0
      ENDDO
      END
`)
	loop := firstLoop(t, u)
	asg := loop.Body[0].(*f77.Assign)
	if asg.LHS.Sym.Name != "A" {
		t.Fatalf("transitive binding failed: writes %s", asg.LHS.Sym.Name)
	}
}

func TestInlineRejectsWrittenExpressionArg(t *testing.T) {
	p := parse(t, `
      PROGRAM P
      REAL X
      CALL BAD(1.0 + 2.0)
      X = 0.0
      END
      SUBROUTINE BAD(Y)
      REAL Y
      Y = 3.0
      END
`)
	if err := FrontEnd(p); err == nil {
		t.Fatal("writing through an expression actual should fail inlining")
	}
}

// ---- Loop context resolution ----

func TestResolveTriangularBounds(t *testing.T) {
	src := `
      PROGRAM P
      REAL A(64,64)
      INTEGER I, J
      DO I = 1, 64
        DO J = I, 64
          A(J,I) = 1.0
        ENDDO
      ENDDO
      END
`
	u := parse(t, src).Main()
	li := firstLoop(t, u)
	lj := li.Body[0].(*f77.DoLoop)
	ci, _ := ResolveLoop(li, nil)
	cj, err := ResolveLoop(lj, []LoopCtx{ci})
	if err != nil {
		t.Fatal(err)
	}
	if cj.Exact {
		t.Fatal("triangular bound reported exact")
	}
	if cj.From != 1 || cj.To != 64 {
		t.Fatalf("conservative bounds = [%d,%d]", cj.From, cj.To)
	}
}

// ---- Constant propagation ----

func TestConstantPropagationThroughScalars(t *testing.T) {
	u := frontEnd(t, `
      PROGRAM P
      REAL A(100)
      INTEGER I, K, L
      K = 10
      L = K * 2
      DO I = 1, L
        A(I + K) = 1.0
      ENDDO
      END
`)
	loop := firstLoop(t, u)
	if !loop.Parallel {
		t.Fatalf("constant-folded loop should be parallel: %s", Explain(loop))
	}
	// The loop bound folded to 20 and the subscript offset to +10.
	ctx, err := ResolveLoop(loop, nil)
	if err != nil || ctx.To != 20 {
		t.Fatalf("bound = %d (%v)", ctx.To, err)
	}
}

func TestConstantPropagationStopsAtReassignment(t *testing.T) {
	u := frontEnd(t, `
      PROGRAM P
      REAL A(100)
      INTEGER I, K
      K = 5
      K = K + 1
      DO I = 1, 10
        A(I + K) = 1.0
      ENDDO
      END
`)
	loop := firstLoop(t, u)
	// K folded to 6 through the second assignment; loop parallel.
	if !loop.Parallel {
		t.Fatalf("loop should be parallel: %s", Explain(loop))
	}
}

func TestConstantPropagationInvalidatedByLoopWrite(t *testing.T) {
	src := `
      PROGRAM P
      REAL A(100)
      INTEGER I, K
      K = 1
      DO I = 1, 10
        A(K) = 1.0
        K = K + 3
      ENDDO
      A(1) = A(2)
      END
`
	u := frontEnd(t, src)
	// K is an induction variable: after substitution the write is
	// strided and the loop parallelizes; crucially the constant 1 must
	// NOT have been propagated into the loop body as if K were fixed.
	loop := firstLoop(t, u)
	if !loop.Parallel {
		t.Fatalf("induction loop should parallelize: %s", Explain(loop))
	}
}

// ---- Multiple inductions in one loop ----

func TestTwoInductionVariables(t *testing.T) {
	u := frontEnd(t, `
      PROGRAM P
      REAL A(300)
      INTEGER I, K, L
      K = 0
      L = 100
      DO I = 1, 50
        K = K + 2
        L = L + 1
        A(K) = 1.0
        A(L + 100) = 2.0
      ENDDO
      END
`)
	loop := firstLoop(t, u)
	if !loop.Parallel {
		t.Fatalf("two-induction loop should parallelize: %s", Explain(loop))
	}
}

func TestExplainRendersAnnotations(t *testing.T) {
	u := frontEnd(t, `
      PROGRAM P
      REAL A(50), S, T
      INTEGER I
      S = 0.0
      DO I = 1, 50
        T = A(I) * 2.0
        A(I) = T
        S = S + T
      ENDDO
      A(1) = S
      END
`)
	loop := loopOf(t, u, "I")
	out := Explain(loop)
	for _, want := range []string{"parallel=true", "reduction(+ S)", "private(T)", "schedule=block"} {
		if !contains(out, want) {
			t.Fatalf("Explain missing %q: %s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestAccessesOfClassification(t *testing.T) {
	src := `
      PROGRAM P
      REAL A(10), B(10)
      INTEGER I
      DO I = 1, 10
        A(I) = A(I) + B(I)
      ENDDO
      END
`
	u := parse(t, src).Main()
	loop := firstLoop(t, u)
	ctx, _ := ResolveLoop(loop, nil)
	ri := Region(loop.Body, []LoopCtx{ctx}, map[*f77.Symbol]bool{loop.Var: true})
	rw := ri.AccessesOf(ri.Summary(), lmad.ReadWrite)
	ro := ri.AccessesOf(ri.Summary(), lmad.ReadOnly)
	foundA, foundB := false, false
	for _, a := range rw {
		if a.Sym.Name == "A" {
			foundA = true
		}
	}
	for _, a := range ro {
		if a.Sym.Name == "B" {
			foundB = true
		}
	}
	if !foundA || !foundB {
		t.Fatalf("AccessesOf: A-rw=%v B-ro=%v", foundA, foundB)
	}
}

func TestInductionFormsRecognized(t *testing.T) {
	// K = c + K and K = K - c forms.
	u := frontEnd(t, `
      PROGRAM P
      REAL A(400)
      INTEGER I, K, L
      K = 0
      L = 401
      DO I = 1, 100
        K = 2 + K
        L = L - 4
        A(K) = 1.0
        A(L) = 2.0
      ENDDO
      END
`)
	loop := firstLoop(t, u)
	if !loop.Parallel {
		t.Fatalf("mixed-form inductions not substituted: %s", Explain(loop))
	}
}

func TestIntrinsicArgsAffineRejected(t *testing.T) {
	// Subscripts containing intrinsic calls are not affine.
	src := `
      PROGRAM P
      REAL A(100)
      INTEGER I
      DO I = 1, 10
        A(MOD(I, 7) + 1) = 1.0
      ENDDO
      END
`
	u := parse(t, src).Main()
	loop := firstLoop(t, u)
	asg := loop.Body[0].(*f77.Assign)
	if _, ok := ExtractAffine(asg.LHS.Subs[0], []LoopCtx{{Var: loop.Var}}); ok {
		t.Fatal("MOD subscript extracted as affine")
	}
	// And the loop must therefore be serial.
	u2 := frontEnd(t, src)
	if firstLoop(t, u2).Parallel {
		t.Fatal("non-affine write marked parallel")
	}
}

func TestAffineDivFold(t *testing.T) {
	// Exact constant division and power fold inside subscripts.
	src := `
      PROGRAM P
      REAL A(100)
      INTEGER I
      DO I = 1, 10
        A(I + 8/4 + 2**3) = 1.0
      ENDDO
      END
`
	u := parse(t, src).Main()
	loop := firstLoop(t, u)
	asg := loop.Body[0].(*f77.Assign)
	aff, ok := ExtractAffine(asg.LHS.Subs[0], []LoopCtx{{Var: loop.Var}})
	if !ok || aff.Const != 10 {
		t.Fatalf("affine = %+v ok=%v", aff, ok)
	}
}

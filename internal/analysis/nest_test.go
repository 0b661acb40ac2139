package analysis

import (
	"fmt"
	"strings"
	"testing"

	"vbuscluster/internal/f77"
	"vbuscluster/internal/progen"
)

// nestSeeds is how many generated nests the verdict oracle checks.
func nestSeeds() int {
	if testing.Short() {
		return 2000
	}
	return 20000
}

// TestNestVerdictsMatchEnumeration holds every loop's verdict, at
// every depth, to the dependences an enumeration of the generated nest
// finds at its real bounds (progen.Nest.Carried): a loop that carries
// a flow, anti or output dependence must not be parallel. A failing
// seed is its own subtest, named so that it can be run alone. The loops
// without a dependence that stay serial are the analysis's precision,
// logged and not checked.
func TestNestVerdictsMatchEnumeration(t *testing.T) {
	falseSerial, falseSerialTop, loops, failed := 0, 0, 0, 0
	for seed := int64(0); seed < int64(nestSeeds()); seed++ {
		n := progen.NewNest(seed)
		prog, err := f77.Parse(n.Src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, n.Src)
		}
		if err := FrontEnd(prog); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, n.Src)
		}
		byLine := map[int]*f77.DoLoop{}
		f77.WalkStmts(prog.Main().Body, func(s f77.Stmt) bool {
			if l, ok := s.(*f77.DoLoop); ok {
				byLine[l.Line()] = l
			}
			return true
		})
		var wrong []string
		for i, carried := range n.Carried() {
			loop := byLine[n.Loops[i].Line]
			loops++
			switch {
			case loop.Parallel && carried:
				wrong = append(wrong, fmt.Sprintf("DO %s (line %d) is parallel, but two of its iterations touch one element, one writing it",
					loop.Var.Name, loop.Line()))
			case !loop.Parallel && !carried:
				falseSerial++
				if i == 0 {
					falseSerialTop++
				}
			}
		}
		if len(wrong) > 0 {
			if failed++; failed <= 10 {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					t.Errorf("%s\n%sreproduce: go test ./internal/analysis -run 'TestNestVerdictsMatchEnumeration/seed=%d$'",
						strings.Join(wrong, "\n"), n.Src, seed)
				})
			}
		}
	}
	if failed > 10 {
		t.Errorf("%d nests with a false-parallel verdict in all, the first 10 above", failed)
	}
	t.Logf("%d nests, %d loops: %d serial without a dependence (%d of them top-level)",
		nestSeeds(), loops, falseSerial, falseSerialTop)
}

// TestDependenceReproducersSerial: loops that carry a dependence the
// per-level test once missed, each beside what the analysis then
// answered.
func TestDependenceReproducersSerial(t *testing.T) {
	for _, tc := range []struct {
		name, loop, src string
	}{
		{
			// DO I was tested on iteration I = 1's one-element region of
			// the triangle, so it was parallel: four ranks then printed
			// "0 0" where the sequential run prints "7 9".
			name: "a triangle tested on its first iteration", loop: "I", src: `
      PROGRAM TRI
      REAL A(40)
      INTEGER I, J
      DO I = 1, 10
        DO J = 1, I
          A(2*I+J) = A(2*I+J) + REAL(I)
        ENDDO
      ENDDO
      END
`,
		},
		{
			// DO J was tested with I pinned to 1, where A(2*J+1) never
			// meets A(2*J), so it was parallel; at I = 2 iteration J
			// reads what iteration J+1 writes.
			name: "enclosing coefficients that differ", loop: "J", src: `
      PROGRAM OUTER
      REAL A(40)
      INTEGER I, J
      DO I = 1, 4
        DO J = 1, 10
          A(2*J) = A(2*J+I) + 1.0
        ENDDO
      ENDDO
      END
`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if l := loopOf(t, frontEnd(t, tc.src), tc.loop); l.Parallel {
				t.Errorf("%s", Explain(l))
			}
		})
	}
}

// TestDryInnerLoopKeepsLevelSerial: a level whose first iteration
// leaves an inner loop without a trip, starting outside every value it
// takes, stays serial with that reason, and so do the generated nests
// of that shape (each of them independent: the rule is conservative).
func TestDryInnerLoopKeepsLevelSerial(t *testing.T) {
	l := loopOf(t, frontEnd(t, `
      PROGRAM DRY
      REAL X(82), Y(15)
      INTEGER I, J
      DO I = 9, 3, -1
        DO J = I+1, 3, 2
          X(-2*I+21) = Y(J+11) * 0.5 + Y(2*J+7)
          Y(-I+2*J+5) = X(3*I+3*J+23) * 0.5 + X(5*I+3*J+24)
        ENDDO
      ENDDO
      END
`), "I")
	if want := "because DO J runs no trip at the loop's first iteration"; l.Parallel || !strings.HasSuffix(Explain(l), want) {
		t.Errorf("%s, want serial %s", Explain(l), want)
	}
	for _, seed := range []int64{240, 2399, 3014, 5139, 9164, 13219, 14331, 15573, 16040, 18651} {
		n := progen.NewNest(seed)
		prog, err := f77.Parse(n.Src)
		if err != nil {
			t.Fatal(err)
		}
		if err := FrontEnd(prog); err != nil {
			t.Fatal(err)
		}
		f77.WalkStmts(prog.Main().Body, func(s f77.Stmt) bool {
			if l, ok := s.(*f77.DoLoop); ok && l.Line() == n.Loops[0].Line && (l.Parallel || n.Carried()[0]) {
				t.Errorf("seed %d: %s, carried %v; want serial and independent\n%s", seed, Explain(l), n.Carried()[0], n.Src)
			}
			return true
		})
	}
}

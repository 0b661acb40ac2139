package analysis

import (
	"testing"

	"vbuscluster/internal/lmad"
)

// TestFigure5SummarySets reproduces the paper's Figure 5: the summary
// sets of a triply nested loop over A(I,J,K) (written) and B(I,2*J,K+1)
// (read), built per statement and integrated (expanded) loop by loop.
func TestFigure5SummarySets(t *testing.T) {
	src := `
      PROGRAM FIG5
      REAL A(100,100,100), B(100,200,101)
      INTEGER I, J, K
      DO J = 1, 100
        DO K = 1, 100
          DO I = 1, 100
            A(I,J,K) = B(I,2*J,K+1)
          ENDDO
        ENDDO
      ENDDO
      END
`
	u := parse(t, src).Main()
	lj := firstLoop(t, u)

	// ---- Statement-level summary (innermost): expand over all three
	// loops, as the paper's "Summary Sets of Statement" boxes do after
	// full expansion: the nest's record builds every reference so.
	nest := buildNest(lj)
	if _, ok := nest.Outer(); !ok {
		t.Fatalf("region not analyzable: %v", nest.levels[0].why)
	}
	// A(I,J,K) in a 100³ column-major array: strides — I:1, J:100,
	// K:10000; loop nest order J,K,I gives dims (100, 10000, 1).
	wf := nest.Summary().ByArray(lmad.WriteFirst, "A")
	if len(wf) != 1 {
		t.Fatalf("A WriteFirst count = %d\n%s", len(wf), nest.Summary())
	}
	if got := wf[0].String(); got != "A^{100,10000,1}_{9900,990000,99}+0" {
		t.Fatalf("A LMAD = %s", got)
	}

	// B(I,2*J,K+1) in a 100×200×101 array: I stride 1; J stride 2·100
	// = 200 per J step... column-major mult for dim2 is 100, dim3 is
	// 100·200=20000; offset of (1,2,2): (2-1)*100 + (2-1)*20000 = 20100.
	ro := nest.Summary().ByArray(lmad.ReadOnly, "B")
	if len(ro) != 1 {
		t.Fatalf("B ReadOnly count = %d\n%s", len(ro), nest.Summary())
	}
	if got := ro[0].String(); got != "B^{200,20000,1}_{19800,1980000,99}+20100" {
		t.Fatalf("B LMAD = %s", got)
	}

	// The two summaries never conflict (different arrays): no ReadWrite.
	if len(nest.Summary().Sets[lmad.ReadWrite]) != 0 {
		t.Fatalf("unexpected ReadWrite promotion:\n%s", nest.Summary())
	}

	// ---- Loop-level integration: the expansion across the parallel J
	// loop is what the postpass partitions. DimOf must place J first.
	for _, r := range nest.refs {
		if r.acc.Sym.Name == "A" && r.acc.DimOf(lj.Var) != 0 {
			t.Fatalf("J dimension not outermost in %v", r.acc.DimLoop)
		}
	}

	// Exactness: the descriptor reproduces precisely the accessed
	// offsets (spot totals).
	if wf[0].Count() != 100*100*100 {
		t.Fatalf("A access count = %d", wf[0].Count())
	}
	if ro[0].Count() != 100*100*100 {
		t.Fatalf("B access count = %d", ro[0].Count())
	}
}

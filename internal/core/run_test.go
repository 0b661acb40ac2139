package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"vbuscluster/internal/fault"
	"vbuscluster/internal/interp"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/mpi"
	"vbuscluster/internal/trace"
)

// mmSrc is a small matrix multiply: with CkptEvery 1 each of its
// parallel regions closes a checkpoint epoch.
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
      PRINT *, C(1,1), C(N,N)
      END
`

func compileResilientMM(t *testing.T) *Compiled {
	t.Helper()
	c, err := Compile(mmSrc, Options{NumProcs: 4, Grain: lmad.Fine, Resilient: true, CkptEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestResilientRunHonoursCancel: RunParams.Ctx bounds a resilient plan
// like any other. An already-cancelled context ends the run with
// mpi.ErrCancelled even with a rank crash armed, and the run neither
// recovers nor traces a recovery round.
func TestResilientRunHonoursCancel(t *testing.T) {
	c := compileResilientMM(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inj, err := fault.FromString("seed=0,crashafter=1/5")
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New()
	res, err := c.RunParallelWith(Full, RunParams{Ctx: ctx, Recorder: rec, Faults: inj})
	var me *mpi.Error
	if !errors.As(err, &me) || me.Kind != mpi.ErrCancelled {
		t.Fatalf("error %v, want an mpi.Error with kind cancelled", err)
	}
	if res != nil {
		t.Fatalf("cancelled run returned a result with %d recoveries", res.Recoveries)
	}
	for _, ev := range rec.Events() {
		if ev.Op == trace.OpRecovery {
			t.Fatalf("cancelled run traced a recovery round: %+v", ev)
		}
	}
}

// TestResilientRunLiveContextUnchanged: a live, never-fired context
// leaves a resilient run bit-identical to one without a context.
func TestResilientRunLiveContextUnchanged(t *testing.T) {
	c := compileResilientMM(t)
	run := func(ctx context.Context) *interp.Result {
		res, err := c.RunParallelWith(Full, RunParams{Ctx: ctx})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(nil), run(context.Background())
	if a.Checkpoints == 0 {
		t.Fatal("resilient run committed no checkpoints")
	}
	if a.Elapsed != b.Elapsed || a.Checkpoints != b.Checkpoints ||
		a.Report.TotalCommOps() != b.Report.TotalCommOps() || a.Report.TotalCommBytes() != b.Report.TotalCommBytes() {
		t.Fatalf("a live context changed the run: elapsed %v vs %v, checkpoints %d vs %d, ops %d vs %d, bytes %d vs %d",
			a.Elapsed, b.Elapsed, a.Checkpoints, b.Checkpoints,
			a.Report.TotalCommOps(), b.Report.TotalCommOps(), a.Report.TotalCommBytes(), b.Report.TotalCommBytes())
	}
	if len(a.Mem) != len(b.Mem) {
		t.Fatalf("%d arrays vs %d", len(a.Mem), len(b.Mem))
	}
	for name, av := range a.Mem {
		bv := b.Mem[name]
		if len(av) != len(bv) {
			t.Fatalf("%s: %d cells vs %d", name, len(av), len(bv))
		}
		for i := range av {
			if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
				t.Fatalf("%s[%d] = %g vs %g", name, i, av[i], bv[i])
			}
		}
	}
}

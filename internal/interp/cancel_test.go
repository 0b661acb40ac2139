package interp

import (
	"context"
	"errors"
	"testing"
	"time"

	"vbuscluster/internal/lmad"
	"vbuscluster/internal/mpi"
	"vbuscluster/internal/postpass"
)

// cancelSrc does enough distributed work that a run cannot finish
// before the context monitor lands its cancel: many parallel sweeps,
// each ending in the live-out exchange's rendezvous.
const cancelSrc = `
      PROGRAM LONG
      INTEGER N
      PARAMETER (N = 64)
      REAL A(N,N), B(N,N)
      INTEGER I, J, K
      DO I = 1, N
        DO J = 1, N
          A(I,J) = REAL(I+J)
        ENDDO
      ENDDO
      DO K = 1, 40
        DO I = 1, N
          DO J = 1, N
            B(I,J) = A(I,J) * 1.0001 + REAL(K)
          ENDDO
        ENDDO
        DO I = 1, N
          DO J = 1, N
            A(I,J) = B(I,J)
          ENDDO
        ENDDO
      ENDDO
      PRINT *, A(1,1)
      END
`

func cancelProgram(t *testing.T) *postpass.Program {
	t.Helper()
	prog := compile(t, cancelSrc)
	pp, err := postpass.Translate(prog, postpass.Options{
		NumProcs: 4, Grain: lmad.Fine, LiveOutAll: true,
	})
	if err != nil {
		t.Fatalf("postpass: %v", err)
	}
	return pp
}

// TestRunPreCancelledContext: a context that is already dead must stop
// the run — quickly, and with a structured cancellation error — rather
// than letting it execute to completion.
func TestRunPreCancelledContext(t *testing.T) {
	pp := cancelProgram(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := RunParallelConfig(pp, newCluster(t, 4), Timing, RunConfig{Ctx: ctx})
	if err == nil {
		t.Fatal("run with a pre-cancelled context completed successfully")
	}
	var me *mpi.Error
	if !errors.As(err, &me) || me.Kind != mpi.ErrCancelled {
		t.Fatalf("error %v, want an mpi.Error with kind cancelled", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("cancelled run still took %v", d)
	}
}

// TestRunMidflightCancel: cancelling while ranks are computing and
// rendezvousing unwinds every rank (no goroutine is left parked in a
// collective), and the same program runs clean afterwards — the world
// teardown left no shared state behind.
func TestRunMidflightCancel(t *testing.T) {
	pp := cancelProgram(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err := RunParallelConfig(pp, newCluster(t, 4), Timing, RunConfig{Ctx: ctx})
	if err != nil {
		var me *mpi.Error
		if !errors.As(err, &me) || me.Kind != mpi.ErrCancelled {
			t.Fatalf("error %v, want an mpi.Error with kind cancelled (or a clean finish)", err)
		}
	}
	// A fresh run of the same translated program must be unaffected.
	if _, err := RunParallelConfig(pp, newCluster(t, 4), Timing, RunConfig{}); err != nil {
		t.Fatalf("clean run after a cancelled one: %v", err)
	}
}

// TestRunNilContextUnchanged: the zero-config path (no context) is the
// bit-identical baseline every prior table was produced with; it must
// still run clean.
func TestRunNilContextUnchanged(t *testing.T) {
	pp := cancelProgram(t)
	a, err := RunParallelConfig(pp, newCluster(t, 4), Timing, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunParallelConfig(pp, newCluster(t, 4), Timing, RunConfig{Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed {
		t.Fatalf("a live (never-fired) context changed virtual time: %v vs %v", a.Elapsed, b.Elapsed)
	}
}

// TestCancelFollowsRecovery: the context monitor follows a supervised
// run onto its shrunken world. A context cancelled while the survivors
// retranslate cancels the replay, which ends in mpi.ErrCancelled
// instead of completing.
func TestCancelFollowsRecovery(t *testing.T) {
	pp, translate, cl := resilientSetup(t, "vbus", "seed=0,crashafter=1/5", 4, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := RunParallelConfig(pp, cl, Full, RunConfig{Ctx: ctx, Retranslate: func(n int) (*postpass.Program, error) {
		cancel()
		return translate(n)
	}})
	var me *mpi.Error
	if !errors.As(err, &me) || me.Kind != mpi.ErrCancelled {
		t.Fatalf("result %v, error %v, want an mpi.Error with kind cancelled", res, err)
	}
}

// seqNestSrc is a loop-carried nest no rank can share: the master runs
// all nine million iterations in a sequential section while the
// slaves wait at its closing barrier.
const seqNestSrc = `
      PROGRAM SEQNEST
      INTEGER N
      PARAMETER (N = 3000)
      REAL X(N)
      INTEGER I, J
      DO J = 1, N
        X(J) = 0.0
      ENDDO
      DO I = 2, N
        DO J = 2, N
          X(J) = X(J-1) * 0.5 + X(J) + 1.0
        ENDDO
      ENDDO
      PRINT *, X(N)
      END
`

// TestDeadlineStopsSequentialNest: a deadline must stop a job inside a
// sequential nest, not at the barrier after it — every loop polls for
// cancellation, whether it runs as its node body or on a tape.
func TestDeadlineStopsSequentialNest(t *testing.T) {
	prog := compile(t, seqNestSrc)
	pp, err := postpass.Translate(prog, postpass.Options{NumProcs: 4, Grain: lmad.Fine})
	if err != nil {
		t.Fatalf("postpass: %v", err)
	}
	for _, r := range pp.Regions {
		if r.Par != nil && r.Par.Loop.Var.Name == "I" {
			t.Fatal("the nest was parallelised; it must run sequentially")
		}
	}
	start := time.Now()
	if _, err := RunParallelConfig(pp, newCluster(t, 4), Full, RunConfig{}); err != nil {
		t.Fatalf("uncancelled run: %v", err)
	}
	whole := time.Since(start)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start = time.Now()
	_, err = RunParallelConfig(pp, newCluster(t, 4), Full, RunConfig{Ctx: ctx})
	took := time.Since(start)
	var me *mpi.Error
	if !errors.As(err, &me) || me.Kind != mpi.ErrCancelled {
		t.Fatalf("error %v, want an mpi.Error with kind cancelled", err)
	}
	if took >= whole/2 {
		t.Fatalf("cancelled run took %v, the whole run %v: the deadline did not stop the nest", took, whole)
	}
}

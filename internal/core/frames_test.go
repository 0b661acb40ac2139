package core_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"vbuscluster/internal/bench"
	"vbuscluster/internal/core"
	"vbuscluster/internal/fault"
	"vbuscluster/internal/interp"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/mpi"
)

// lockRedSrc is a parallel sum reduction over a local array: under
// Options.LockReductions the slaves combine into the master's one-cell
// window inside lock/unlock critical sections.
const lockRedSrc = `
      PROGRAM RED
      INTEGER N
      PARAMETER (N = 64)
      REAL A(N), B(N), S
      INTEGER I
      DO I = 1, N
        A(I) = REAL(I) * 0.5
        B(I) = REAL(N - I)
      ENDDO
      S = 0.0
      DO I = 1, N
        S = S + A(I) * B(I)
      ENDDO
      PRINT *, S
      END
`

// longSrc keeps every rank busy for many regions, so a cancel fired a
// few milliseconds in lands while slaves are mid-computation.
const longSrc = `
      PROGRAM LONG
      INTEGER N
      PARAMETER (N = 96)
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
      PRINT *, A(1,1), A(N,N)
      END
`

// slaveOOBSrc writes one cell past A's end in the last iteration of a
// parallel loop, which the last slave owns.
const slaveOOBSrc = `
      PROGRAM OOB
      INTEGER N
      PARAMETER (N = 16)
      REAL A(N)
      INTEGER I
      DO I = 1, N
        A(I+1) = REAL(I)
      ENDDO
      PRINT *, A(2)
      END
`

func mustCompile(t *testing.T, src string, opts core.Options) *core.Compiled {
	t.Helper()
	c, err := core.Compile(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func fullRun(t *testing.T, c *core.Compiled, rp core.RunParams) *interp.Result {
	t.Helper()
	res, err := c.RunParallelWith(core.Full, rp)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameRun fails unless got matches want bit for bit: program output,
// elapsed virtual time, every rank's final clock and every cell of the
// master's final memory (compared as bit patterns, so −0 and NaN
// payloads count).
func sameRun(t *testing.T, tag string, got, want *interp.Result) {
	t.Helper()
	if got.Output != want.Output {
		t.Errorf("%s: output %q, want %q", tag, got.Output, want.Output)
	}
	if got.Elapsed != want.Elapsed {
		t.Errorf("%s: elapsed %v, want %v", tag, got.Elapsed, want.Elapsed)
	}
	if !reflect.DeepEqual(got.Report.Clocks, want.Report.Clocks) {
		t.Errorf("%s: clocks %v, want %v", tag, got.Report.Clocks, want.Report.Clocks)
	}
	if len(got.Mem) != len(want.Mem) {
		t.Errorf("%s: %d arrays in memory, want %d", tag, len(got.Mem), len(want.Mem))
	}
	for name, w := range want.Mem {
		g, ok := got.Mem[name]
		if !ok || len(g) != len(w) {
			t.Errorf("%s: %s has %d cells, want %d", tag, name, len(g), len(w))
			continue
		}
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Errorf("%s: %s[%d] = %v, want %v", tag, name, i, g[i], w[i])
				break
			}
		}
	}
}

// TestRepeatedFullRunsOfOneCompiled runs one Compiled several times in
// a row in Full mode, as the plan cache does. Every run reuses the
// Compiled's lowered form, so anything one run leaves behind in it —
// a frame, a window's backing, a stale array cell — would reach the
// next; each run must equal the first bit for bit.
func TestRepeatedFullRunsOfOneCompiled(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		opts core.Options
	}{
		{"mm/one-sided", bench.MMSource(32), core.Options{NumProcs: 4, Grain: lmad.Coarse}},
		{"swim/one-sided", bench.SwimSource(32, 32), core.Options{NumProcs: 4, Grain: lmad.Fine}},
		{"mm/two-sided", bench.MMSource(32), core.Options{NumProcs: 4, Grain: lmad.Coarse, TwoSided: true}},
		{"swim/two-sided", bench.SwimSource(32, 32), core.Options{NumProcs: 4, Grain: lmad.Fine, TwoSided: true}},
		{"swim/pull-scatter", bench.SwimSource(32, 32), core.Options{NumProcs: 4, Grain: lmad.Middle, PullScatter: true}},
		{"cfft/coalesce", bench.CFFTSource(8), core.Options{NumProcs: 4, Grain: lmad.Fine, Coalesce: true}},
		{"reduction/locked", lockRedSrc, core.Options{NumProcs: 4, Grain: lmad.Fine, LockReductions: true}},
		{"mm/resilient", bench.MMSource(24), core.Options{NumProcs: 4, Grain: lmad.Fine, Resilient: true, CkptEvery: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			c := mustCompile(t, tc.src, tc.opts)
			first := fullRun(t, c, core.RunParams{})
			if len(first.Mem) == 0 {
				t.Fatal("the run left no memory to compare")
			}
			for i := 1; i < 4; i++ {
				res := fullRun(t, c, core.RunParams{})
				sameRun(t, tc.name, res, first)
				if res.Checkpoints != first.Checkpoints {
					t.Errorf("run %d: %d checkpoints, first run %d", i, res.Checkpoints, first.Checkpoints)
				}
			}
		})
	}
}

// TestFullRunAfterCancelMatchesFresh: a Full-mode run cancelled while
// its ranks compute leaves nothing in its Compiled that the next run
// sees; that run equals one on a fresh compilation.
func TestFullRunAfterCancelMatchesFresh(t *testing.T) {
	opts := core.Options{NumProcs: 4, Grain: lmad.Fine}
	c := mustCompile(t, longSrc, opts)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	if _, err := c.RunParallelWith(core.Full, core.RunParams{Ctx: ctx}); err != nil {
		var me *mpi.Error
		if !errors.As(err, &me) || me.Kind != mpi.ErrCancelled {
			t.Fatalf("error %v, want an mpi.Error with kind cancelled (or a clean finish)", err)
		}
	}
	cancel()
	sameRun(t, "after cancel", fullRun(t, c, core.RunParams{}), fullRun(t, mustCompile(t, longSrc, opts), core.RunParams{}))
}

// TestFullRunAfterSlaveFailureMatchesFresh: a run that fails on a slave
// — a subscript error in its share of a loop, or a crash part way
// through — leaves nothing in its Compiled that the next run sees.
func TestFullRunAfterSlaveFailureMatchesFresh(t *testing.T) {
	opts := core.Options{NumProcs: 4, Grain: lmad.Fine}

	// A subscript error is in the program, so every run of the plan
	// fails with it: the same error as a fresh compilation's.
	oob := mustCompile(t, slaveOOBSrc, opts)
	var errs []string
	for _, c := range []*core.Compiled{oob, oob, mustCompile(t, slaveOOBSrc, opts)} {
		_, err := c.RunParallelWith(core.Full, core.RunParams{})
		if err == nil {
			t.Fatal("out-of-bounds run succeeded")
		}
		errs = append(errs, err.Error())
	}
	if errs[1] != errs[0] || errs[2] != errs[0] {
		t.Errorf("errors differ across runs: %q", errs)
	}

	// A crash is the run's: the next clean run of the plan equals a
	// fresh compilation's.
	inj, err := fault.FromString("seed=0,crashafter=2/5")
	if err != nil {
		t.Fatal(err)
	}
	c := mustCompile(t, longSrc, opts)
	_, err = c.RunParallelWith(core.Full, core.RunParams{Faults: inj})
	var me *mpi.Error
	if !errors.As(err, &me) || me.Kind != mpi.ErrCrashed {
		t.Fatalf("error %v, want the crashed slave's mpi.Error", err)
	}
	sameRun(t, "after crash", fullRun(t, c, core.RunParams{}), fullRun(t, mustCompile(t, longSrc, opts), core.RunParams{}))
}

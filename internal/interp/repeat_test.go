package interp

import (
	"reflect"
	"testing"

	"vbuscluster/internal/cluster"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/postpass"
	"vbuscluster/internal/trace"
)

// reductionSrc exercises the lock path under LockReductions: a
// parallel reduction whose combining runs inside MPI_WIN_LOCK critical
// sections on the master.
const reductionSrc = `
      PROGRAM RED
      INTEGER N
      PARAMETER (N = 32)
      REAL A(N), S
      INTEGER I
      DO I = 1, N
        A(I) = REAL(I)
      ENDDO
      S = 0.0
      DO I = 1, N
        S = S + A(I)*A(I)
      ENDDO
      PRINT *, S
      END
`

// runTraced executes src in Full mode on 4 ranks of the named fabric,
// returning the result and the recorded timeline.
func runTraced(t *testing.T, src, fabric string, lockRed bool) (*Result, []trace.Event) {
	t.Helper()
	prog := compile(t, src)
	pp, err := postpass.Translate(prog, postpass.Options{
		NumProcs: 4, Grain: lmad.Fine, LiveOutAll: true, LockReductions: lockRed,
	})
	if err != nil {
		t.Fatalf("postpass: %v", err)
	}
	params, err := cluster.ParamsForFabric(fabric)
	if err != nil {
		t.Fatalf("fabric %q: %v", fabric, err)
	}
	cl, err := cluster.New(4, params)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New()
	cl.SetRecorder(rec)
	res, err := RunParallel(pp, cl, Full)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res, rec.Events()
}

// How the Go scheduler interleaves the rank goroutines must be
// invisible in every observable output: repeated runs produce the same
// payloads, final clocks and full trace timeline byte for byte, on
// every fabric.
func TestRepeatedRunsIdentical(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		lockRed bool
	}{
		{"mm", mmSrc, false},
		{"reduction-locked", reductionSrc, true},
	}
	for _, cse := range cases {
		for _, fabric := range []string{"vbus", "ethernet", "ideal"} {
			refRes, refEvs := runTraced(t, cse.src, fabric, cse.lockRed)
			for i := 0; i < 3; i++ {
				res, evs := runTraced(t, cse.src, fabric, cse.lockRed)
				tag := cse.name + "/" + fabric
				if res.Output != refRes.Output {
					t.Errorf("%s: output %q != first run's %q", tag, res.Output, refRes.Output)
				}
				if res.Elapsed != refRes.Elapsed {
					t.Errorf("%s: elapsed %v != first run's %v", tag, res.Elapsed, refRes.Elapsed)
				}
				if !reflect.DeepEqual(res.Report.Clocks, refRes.Report.Clocks) {
					t.Errorf("%s: clocks %v != first run's %v", tag, res.Report.Clocks, refRes.Report.Clocks)
				}
				if !reflect.DeepEqual(res.Mem, refRes.Mem) {
					t.Errorf("%s: master memory differs from the first run's", tag)
				}
				if !reflect.DeepEqual(evs, refEvs) {
					t.Errorf("%s: %d trace events != first run's %d, or contents differ",
						tag, len(evs), len(refEvs))
				}
			}
		}
	}
}

// Timing mode — the mode the 1024-rank sweep runs in — is deterministic
// too, and charges exactly what the Full run does.
func TestTimingRunsDeterministic(t *testing.T) {
	ref, _ := runTraced(t, mmSrc, "vbus", false)
	for i := 0; i < 2; i++ {
		prog := compile(t, mmSrc)
		pp, err := postpass.Translate(prog, postpass.Options{NumProcs: 4, Grain: lmad.Fine, LiveOutAll: true})
		if err != nil {
			t.Fatalf("postpass: %v", err)
		}
		res, err := RunParallel(pp, newCluster(t, 4), Timing)
		if err != nil {
			t.Fatalf("timing run: %v", err)
		}
		if res.Elapsed != ref.Elapsed {
			t.Errorf("timing run %d: elapsed %v != full-mode %v", i, res.Elapsed, ref.Elapsed)
		}
	}
}

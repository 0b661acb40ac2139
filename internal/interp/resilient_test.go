package interp

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vbuscluster/internal/ckpt"
	"vbuscluster/internal/cluster"
	"vbuscluster/internal/fault"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/mpi"
	"vbuscluster/internal/postpass"
	"vbuscluster/internal/trace"
)

// resSrc is the recovery property-test program: three parallel regions
// and a sequential tail, deliberately reduction-free — every output
// element is owned by exactly one rank, so the result is bitwise
// independent of the rank count and a shrunken replay must reproduce
// the fault-free bytes exactly.
const resSrc = `
      PROGRAM RES
      INTEGER N
      PARAMETER (N = 10)
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
      DO I = 1, N
        DO J = 1, N
          C(I,J) = C(I,J) * 2.0 + A(I,J)
        ENDDO
      ENDDO
      PRINT *, C(1,1)
      PRINT *, C(10,10)
      END
`

// resilientSetup compiles resSrc into checkpoint epochs of ckptEvery
// parallel regions, returning its translation for procs ranks, the
// retranslation hook and a cluster of the named fabric under the given
// fault spec ("" = fault-free).
func resilientSetup(t *testing.T, fabric, spec string, procs, ckptEvery int) (*postpass.Program, func(int) (*postpass.Program, error), *cluster.Cluster) {
	t.Helper()
	prog := compile(t, resSrc)
	translate := func(n int) (*postpass.Program, error) {
		return postpass.Translate(prog, postpass.Options{
			NumProcs:   n,
			Grain:      lmad.Fine,
			LiveOutAll: true,
			Resilient:  true,
			CkptEvery:  ckptEvery,
		})
	}
	pp, err := translate(procs)
	if err != nil {
		t.Fatalf("postpass: %v", err)
	}
	params, err := cluster.ParamsForFabric(fabric)
	if err != nil {
		t.Fatalf("fabric %s: %v", fabric, err)
	}
	if spec != "" {
		inj, err := fault.FromString(spec)
		if err != nil {
			t.Fatalf("fault spec %q: %v", spec, err)
		}
		params.Faults = inj
	}
	cl, err := cluster.New(procs, params)
	if err != nil {
		t.Fatal(err)
	}
	return pp, translate, cl
}

// runResilientTest runs resSrc resiliently: resilientSetup's
// translation on its cluster, with its retranslation hook.
func runResilientTest(t *testing.T, fabric, spec string, procs, ckptEvery int, mode Mode, dir string) (*Result, error) {
	t.Helper()
	pp, translate, cl := resilientSetup(t, fabric, spec, procs, ckptEvery)
	return RunParallelConfig(pp, cl, mode, RunConfig{Retranslate: translate, Dir: dir})
}

// memIdentical compares two result memories bit for bit.
func memIdentical(t *testing.T, label string, got, want map[string][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d arrays vs %d", label, len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok || len(g) != len(w) {
			t.Fatalf("%s: array %s missing or resized", label, name)
		}
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("%s: %s[%d] = %g, want %g (bitwise)", label, name, i, g[i], w[i])
			}
		}
	}
}

// TestResilientMatchesPlainRun: with no faults, the resilient runner
// produces exactly the plain parallel run's memory and output — the
// checkpoint rounds only cost virtual time.
func TestResilientMatchesPlainRun(t *testing.T) {
	base := runPar(t, resSrc, 4, lmad.Fine, Full)
	res, err := runResilientTest(t, "vbus", "", 4, 1, Full, "")
	if err != nil {
		t.Fatalf("resilient: %v", err)
	}
	memIdentical(t, "fault-free resilient", res.Mem, base.Mem)
	if res.Output != base.Output {
		t.Fatalf("output %q, want %q", res.Output, base.Output)
	}
	if res.Recoveries != 0 {
		t.Fatalf("fault-free run reported %d recoveries", res.Recoveries)
	}
	if res.Checkpoints == 0 {
		t.Fatal("resilient run committed no checkpoints")
	}
}

// TestRecoveredRunBitIdentical is the recovery property: a rank killed
// after any operation budget — before the first checkpoint, between
// checkpoints, deep into the run — yields a completed run whose output
// arrays and printed output are byte-identical to the fault-free run,
// on every interconnect backend.
func TestRecoveredRunBitIdentical(t *testing.T) {
	for _, fabric := range []string{"vbus", "ethernet", "ideal"} {
		base, err := runResilientTest(t, fabric, "", 4, 1, Full, "")
		if err != nil {
			t.Fatalf("%s baseline: %v", fabric, err)
		}
		for _, budget := range []int{0, 1, 5, 9, 14, 20} {
			spec := fmt.Sprintf("seed=0,crashafter=1/%d", budget)
			t.Run(fmt.Sprintf("%s/kill@%d", fabric, budget), func(t *testing.T) {
				res, err := runResilientTest(t, fabric, spec, 4, 1, Full, "")
				if err != nil {
					t.Fatalf("resilient run under %s: %v", spec, err)
				}
				memIdentical(t, "recovered", res.Mem, base.Mem)
				if res.Output != base.Output {
					t.Fatalf("output %q, want %q", res.Output, base.Output)
				}
				if res.Recoveries != 1 {
					t.Fatalf("recoveries = %d, want 1", res.Recoveries)
				}
			})
		}
	}
}

// TestResilientSurvivesTwoCrashes: two ranks with separate budgets die
// at different points; two shrink-and-replay rounds still reach the
// fault-free bytes.
func TestResilientSurvivesTwoCrashes(t *testing.T) {
	base, err := runResilientTest(t, "vbus", "", 4, 1, Full, "")
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	res, err := runResilientTest(t, "vbus", "seed=0,crashafter=1/3,crashafter=3/30", 4, 1, Full, "")
	if err != nil {
		t.Fatalf("resilient: %v", err)
	}
	memIdentical(t, "twice-recovered", res.Mem, base.Mem)
	if res.Output != base.Output {
		t.Fatalf("output %q, want %q", res.Output, base.Output)
	}
	if res.Recoveries != 2 {
		t.Fatalf("recoveries = %d, want 2", res.Recoveries)
	}
}

// TestResilientPersistsCheckpoints: with a checkpoint directory, every
// committed epoch snapshot lands on disk and decodes cleanly.
func TestResilientPersistsCheckpoints(t *testing.T) {
	dir := t.TempDir()
	res, err := runResilientTest(t, "vbus", "", 4, 1, Full, dir)
	if err != nil {
		t.Fatalf("resilient: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != res.Checkpoints {
		t.Fatalf("%d checkpoint files, committed %d", len(ents), res.Checkpoints)
	}
	for _, ent := range ents {
		blob, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ckpt.Decode(blob); err != nil {
			t.Fatalf("%s does not decode: %v", ent.Name(), err)
		}
	}
}

// oobSrc stores one element past A's end in its parallel loop, so only
// the last partition fails: on a slave, while its peers wait at the
// region's fence.
const oobSrc = `
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

// TestSlaveErrorIsTheRunError: a slave's interpreter error is the run's
// error, not the peer-crashed or revoked failure its departure causes
// on the ranks waiting for it.
func TestSlaveErrorIsTheRunError(t *testing.T) {
	prog := compile(t, oobSrc)
	pp, err := postpass.Translate(prog, postpass.Options{NumProcs: 4, Grain: lmad.Fine, LiveOutAll: true})
	if err != nil {
		t.Fatalf("postpass: %v", err)
	}
	_, err = RunParallel(pp, newCluster(t, 4), Full)
	if err == nil || !strings.Contains(err.Error(), "subscript out of bounds") {
		t.Fatalf("error %v, want the slave's subscript error", err)
	}
	var me *mpi.Error
	if errors.As(err, &me) {
		t.Fatalf("error %v is the collateral mpi failure, not the root cause", err)
	}
}

// TestUnsupervisedCrashIsTheRunError: without a Retranslate hook a rank
// crash is the run's error — the crashed rank's own, not a peer's
// revoked or peer-crashed observation of it — and no agreement or
// recovery round is charged or traced.
func TestUnsupervisedCrashIsTheRunError(t *testing.T) {
	pp, _, cl := resilientSetup(t, "vbus", "seed=0,crashafter=1/5", 4, 1)
	rec := trace.New()
	cl.SetRecorder(rec)
	_, err := RunParallelConfig(pp, cl, Full, RunConfig{})
	var me *mpi.Error
	if !errors.As(err, &me) || me.Kind != mpi.ErrCrashed {
		t.Fatalf("error %v, want the crashed rank's own mpi.Error", err)
	}
	for _, ev := range rec.Events() {
		if ev.Op == trace.OpRecovery {
			t.Fatalf("unsupervised run traced a recovery round: %+v", ev)
		}
	}
}

// TestRecoveryChargesSurvivingNodes: after a shrink the ranks are
// renumbered over the surviving nodes, and each rank's compute is
// charged to its own node. The killed node computes no more than in the
// fault-free run, and every survivor, which replays a larger share, at
// least as much.
func TestRecoveryChargesSurvivingNodes(t *testing.T) {
	base, err := runResilientTest(t, "vbus", "", 4, 1, Full, "")
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	for _, budget := range []int{5, 20} {
		res, err := runResilientTest(t, "vbus", fmt.Sprintf("seed=0,crashafter=1/%d", budget), 4, 1, Full, "")
		if err != nil {
			t.Fatalf("kill@%d: %v", budget, err)
		}
		got, want := res.Report.CompTime, base.Report.CompTime
		if got[1] > want[1] {
			t.Errorf("kill@%d: killed node 1 computed %v, fault-free %v", budget, got[1], want[1])
		}
		for _, node := range []int{0, 2, 3} {
			if got[node] < want[node] {
				t.Errorf("kill@%d: surviving node %d computed %v, fault-free %v", budget, node, got[node], want[node])
			}
		}
	}
}

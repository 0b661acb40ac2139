package bench

import (
	"strings"
	"testing"

	"vbuscluster/internal/lmad"
)

func TestCommMatrixForMM(t *testing.T) {
	const procs = 4
	m, err := CommMatrixFor(mmBenchmark(64), lmad.Coarse, Env{Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != procs {
		t.Fatalf("matrix has %d rows, want %d", len(m), procs)
	}
	// The SPMD model is master-scatter/slave-collect: rank 0 ships work
	// out, slaves ship results back, so row 0 and column 0 carry traffic.
	var scatter, collect int64
	for j := 1; j < procs; j++ {
		scatter += m[0][j]
	}
	for i := 1; i < procs; i++ {
		collect += m[i][0]
	}
	if scatter == 0 || collect == 0 {
		t.Fatalf("expected master-centric traffic, matrix: %v", m)
	}
	// Slaves never talk to each other directly in this model.
	for i := 1; i < procs; i++ {
		for j := 1; j < procs; j++ {
			if i != j && m[i][j] != 0 {
				t.Fatalf("unexpected slave-to-slave bytes m[%d][%d]=%d", i, j, m[i][j])
			}
		}
	}
}

func TestCommProfilesDeterministic(t *testing.T) {
	set := Table2Benchmarks(64, 64, 7)
	t1, err := CommProfiles(set, lmad.Coarse, Env{})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := CommProfiles(set, lmad.Coarse, Env{})
	if err != nil {
		t.Fatal(err)
	}
	out1 := t1.String()
	if out1 != t2.String() {
		t.Fatal("profile output differs across identical runs")
	}
	for _, b := range set {
		if !strings.Contains(out1, b.Name) {
			t.Fatalf("profile output missing benchmark %q:\n%s", b.Name, out1)
		}
	}
	if !strings.Contains(out1, "communication matrix") {
		t.Fatalf("missing matrix heading:\n%s", out1)
	}
}

func TestCommProfilesBadFabric(t *testing.T) {
	if _, err := CommProfiles(Table2Benchmarks(64, 64, 7), lmad.Coarse, Env{Fabric: "nonsense"}); err == nil {
		t.Fatal("unknown fabric accepted")
	}
}

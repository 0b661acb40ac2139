package bench

import "testing"

// TestKillSweepShape: a small sweep completes, every recovered run
// verifies bit-identical against the fault-free resilient baseline,
// and the crash rows actually recovered.
func TestKillSweepShape(t *testing.T) {
	rows, err := KillSweep(16, []int64{0, 8}, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want baseline + 2 crash points", len(rows))
	}
	if rows[0].Ops != -1 || rows[0].Recoveries != 0 {
		t.Fatalf("baseline row = %+v", rows[0])
	}
	for _, r := range rows {
		if !r.Verified {
			t.Errorf("kill@%d: recovered payload differs from the fault-free run", r.Ops)
		}
		if r.Checkpoints == 0 {
			t.Errorf("kill@%d: no checkpoints committed", r.Ops)
		}
	}
	for _, r := range rows[1:] {
		if r.Recoveries != 1 {
			t.Errorf("kill@%d: %d recoveries, want 1", r.Ops, r.Recoveries)
		}
		if r.RecoveryTime == 0 {
			t.Errorf("kill@%d: no recovery time traced", r.Ops)
		}
	}
}

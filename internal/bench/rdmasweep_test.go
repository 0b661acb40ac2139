package bench

import "testing"

// The rdma card's protocol crossover is a pure function of its
// calibration; these are the figures the protocol sweep measures and
// EXPERIMENTS.md quotes. A recalibration must change them here.
func TestRdmaGateExact(t *testing.T) {
	got, err := RdmaGate()
	if err != nil {
		t.Fatal(err)
	}
	want := RdmaGateRow{CrossoverBytes: 3521, WarmCrossoverBytes: 933, CrossoverElems: 441, RegCacheEntries: 128}
	if got != want {
		t.Fatalf("rdma protocol model drifted: got %+v, want %+v", got, want)
	}
}

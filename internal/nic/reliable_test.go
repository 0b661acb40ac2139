package nic

import (
	"testing"

	"vbuscluster/internal/fault"
	"vbuscluster/internal/sim"
)

func testCard(t *testing.T) *VBus {
	t.Helper()
	card, err := NewVBus(DefaultVBusConfig())
	if err != nil {
		t.Fatal(err)
	}
	return card
}

// ack is the card's one-word one-hop message latency, the ACK/NACK
// detection time the runtime hands ReliableCost.
func ack(card *VBus) sim.Time { return card.SendSetup() + card.ContigTime(8, 1) }

func inj(t *testing.T, spec string) *fault.Injector {
	t.Helper()
	i, err := fault.FromString(spec)
	if err != nil {
		t.Fatalf("FromString(%q): %v", spec, err)
	}
	return i
}

func TestReliableCostCleanFabricIsFree(t *testing.T) {
	card := testCard(t)
	for _, in := range []*fault.Injector{nil, inj(t, "seed=0,flitdrop=1,corrupt=1")} {
		out, npkts := ReliableCost(card, in, ack(card), 0, 1, 1, 100_000, 0)
		if out != (Outcome{}) {
			t.Errorf("clean fabric outcome = %+v, want zero", out)
		}
		if want := (100_000 + fault.DefaultMTU - 1) / fault.DefaultMTU; npkts != want {
			t.Errorf("npkts = %d, want %d", npkts, want)
		}
	}
	if out, npkts := ReliableCost(card, nil, ack(card), 0, 1, 1, 0, 0); out != (Outcome{}) || npkts != 0 {
		t.Errorf("empty transfer = %+v/%d, want zero", out, npkts)
	}
}

func TestReliableCostDeterministic(t *testing.T) {
	card := testCard(t)
	a := inj(t, "seed=99,flitdrop=0.05,corrupt=0.05")
	b := inj(t, "seed=99,flitdrop=0.05,corrupt=0.05")
	for seq := 0; seq < 10; seq++ {
		oa, na := ReliableCost(card, a, ack(card), 2, 3, 2, 1<<17, seq*1000)
		ob, nb := ReliableCost(card, b, ack(card), 2, 3, 2, 1<<17, seq*1000)
		if oa != ob || na != nb {
			t.Fatalf("same seed disagrees: %+v/%d vs %+v/%d", oa, na, ob, nb)
		}
	}
}

func TestReliableCostMonotoneInDropRate(t *testing.T) {
	card := testCard(t)
	var prev Outcome
	for _, rate := range []string{"1e-4", "1e-3", "1e-2", "1e-1", "0.3"} {
		in := inj(t, "seed=7,flitdrop="+rate)
		out, _ := ReliableCost(card, in, ack(card), 0, 1, 1, 1<<20, 0)
		if out.Extra < prev.Extra || out.Retransmissions < prev.Retransmissions {
			t.Fatalf("outcome not monotone at rate %s: %+v after %+v", rate, out, prev)
		}
		prev = out
	}
	if prev.Extra == 0 || prev.Retransmissions == 0 {
		t.Error("no retries at 30% drop over 256 packets")
	}
}

func TestReliableCostAlwaysDelivers(t *testing.T) {
	// Even at 100% drop the escalation path bounds every packet's
	// attempts and guarantees delivery.
	card := testCard(t)
	in := inj(t, "seed=3,flitdrop=1,maxretry=2")
	out, npkts := ReliableCost(card, in, ack(card), 0, 1, 1, 3*fault.DefaultMTU, 0)
	if npkts != 3 {
		t.Fatalf("npkts = %d, want 3", npkts)
	}
	if out.Escalations != 3 {
		t.Errorf("escalations = %d, want 3 (one per packet)", out.Escalations)
	}
	if want := 3 * 3; out.Retransmissions != want {
		t.Errorf("retransmissions = %d, want %d (maxretry+1 failures per packet)", out.Retransmissions, want)
	}
	if out.Extra <= 0 {
		t.Error("no extra time charged at 100% drop")
	}
}

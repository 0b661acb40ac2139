package peer

import (
	"fmt"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("plan-key-%04d", i)
	}
	return keys
}

// TestRingDeterministicAcrossOrderings is the federation's routing
// contract: every peer builds the same ring from any spelling of the
// member set, so owners agree without exchanging ring state.
func TestRingDeterministicAcrossOrderings(t *testing.T) {
	a, err := NewRing([]string{"n1:1", "n2:1", "n3:1"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"n3:1", "n1:1", "n2:1", "n1:1"})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ringKeys(500) {
		oa, _ := a.Owner(k, nil)
		ob, _ := b.Owner(k, nil)
		if oa != ob {
			t.Fatalf("key %s: owner %s vs %s across member orderings", k, oa, ob)
		}
	}
}

// TestRingDistribution: 64 virtual nodes per member should split a
// three-member ring within a loose factor of even — no member starved,
// none dominant.
func TestRingDistribution(t *testing.T) {
	r, err := NewRing([]string{"n1:1", "n2:1", "n3:1"})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	keys := ringKeys(3000)
	for _, k := range keys {
		o, ok := r.Owner(k, nil)
		if !ok {
			t.Fatalf("key %s: no owner", k)
		}
		counts[o]++
	}
	for m, c := range counts {
		frac := float64(c) / float64(len(keys))
		if frac < 0.15 || frac > 0.55 {
			t.Fatalf("member %s owns %.1f%% of keys, want 15-55%%", m, 100*frac)
		}
	}
}

// TestRingSuccessorsDistinct: the failover order is every member once,
// owner first, no repeats.
func TestRingSuccessorsDistinct(t *testing.T) {
	members := []string{"n1:1", "n2:1", "n3:1", "n4:1"}
	r, err := NewRing(members)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ringKeys(100) {
		succ := r.Successors(k, len(members), nil)
		if len(succ) != len(members) {
			t.Fatalf("key %s: %d successors, want %d", k, len(succ), len(members))
		}
		seen := map[string]bool{}
		for _, s := range succ {
			if seen[s] {
				t.Fatalf("key %s: duplicate successor %s in %v", k, s, succ)
			}
			seen[s] = true
		}
		owner, _ := r.Owner(k, nil)
		if succ[0] != owner {
			t.Fatalf("key %s: successor[0]=%s, owner=%s", k, succ[0], owner)
		}
	}
}

// TestRingDeadMemberStability is consistent hashing's point: a death
// reroutes only the dead member's keys. Every key owned by a survivor
// keeps its owner, and the dead member's keys land on their next
// successor.
func TestRingDeadMemberStability(t *testing.T) {
	r, err := NewRing([]string{"n1:1", "n2:1", "n3:1"})
	if err != nil {
		t.Fatal(err)
	}
	const dead = "n2:1"
	live := func(m string) bool { return m != dead }
	moved := 0
	for _, k := range ringKeys(1000) {
		before, _ := r.Owner(k, nil)
		after, _ := r.Owner(k, live)
		if before != dead {
			if after != before {
				t.Fatalf("key %s owned by survivor %s moved to %s on unrelated death", k, before, after)
			}
			continue
		}
		moved++
		if after == dead {
			t.Fatalf("key %s still routed to dead member", k)
		}
		// The new owner must be the old failover successor, so warm
		// handoff and failover forwarding agree on the destination.
		succ := r.Successors(k, 2, nil)
		if len(succ) < 2 || after != succ[1] {
			t.Fatalf("key %s: rerouted to %s, want next successor %v", k, after, succ)
		}
	}
	if moved == 0 {
		t.Fatal("dead member owned no keys — distribution broken")
	}
}

// TestRingRejectsBadMembers: empty lists and empty member names are
// configuration errors, not silent one-node rings.
func TestRingRejectsBadMembers(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Fatal("empty member list accepted")
	}
	if _, err := NewRing([]string{"n1:1", ""}); err == nil {
		t.Fatal("empty member name accepted")
	}
}

// TestRingAllDead: no live member means no owner — the caller (the
// node layer) then degrades to local compilation.
func TestRingAllDead(t *testing.T) {
	r, err := NewRing([]string{"n1:1", "n2:1"})
	if err != nil {
		t.Fatal(err)
	}
	if o, ok := r.Owner("k", func(string) bool { return false }); ok {
		t.Fatalf("owner %s under all-dead view, want none", o)
	}
}

package interconnect_test

import (
	"testing"

	"vbuscluster/internal/interconnect"
	_ "vbuscluster/internal/nic" // register the vbus and ethernet backends
	"vbuscluster/internal/sim"
)

// TestRegistry checks that the shipped backends are registered and
// constructible, and that unknown names fail with a useful error.
func TestRegistry(t *testing.T) {
	names := interconnect.Names()
	want := map[string]bool{"vbus": false, "vbus3d": false, "ethernet": false, "ideal": false, "rdma": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("backend %q not registered (have %v)", n, names)
		}
	}
	for _, n := range names {
		ic, err := interconnect.New(n)
		if err != nil {
			t.Fatalf("New(%q): %v", n, err)
		}
		if ic == nil {
			t.Fatalf("New(%q) returned nil backend", n)
		}
	}
	if _, err := interconnect.New("no-such-fabric"); err == nil {
		t.Error("New of unknown backend succeeded")
	}
}

// TestContract checks every registered backend against the
// Interconnect contract: all costs non-negative, transfer times
// monotone non-decreasing in payload size, and capability flags
// consistent with the optional extensions implemented — a hardware bus
// free for a single node and monotone in payload. The software tree a
// bus-less card broadcasts over is the kernel's, and is checked there
// (internal/commcost).
func TestContract(t *testing.T) {
	for _, name := range interconnect.Names() {
		t.Run(name, func(t *testing.T) {
			ic, err := interconnect.New(name)
			if err != nil {
				t.Fatal(err)
			}
			nonNeg := func(what string, v sim.Time) {
				t.Helper()
				if v < 0 {
					t.Errorf("%s = %v, want >= 0", what, v)
				}
			}
			nonNeg("SendSetup", ic.SendSetup())

			// Monotone in bytes/elements at several hop counts.
			for _, hops := range []int{0, 1, 4} {
				var prevC, prevS sim.Time
				for i, bytes := range []int{0, 8, 64, 4096, 1 << 20} {
					c := ic.ContigTime(bytes, hops)
					nonNeg("ContigTime", c)
					s := ic.StridedTime(bytes/8, 8, hops)
					nonNeg("StridedTime", s)
					if i > 0 {
						if c < prevC {
							t.Errorf("ContigTime(%d, %d) = %v < ContigTime of smaller payload %v", bytes, hops, c, prevC)
						}
						if s < prevS {
							t.Errorf("StridedTime(%d elems, %d) = %v < smaller payload %v", bytes/8, hops, s, prevS)
						}
					}
					prevC, prevS = c, s
				}
			}

			// Hardware-broadcast backends: the HardwareBroadcast flag and
			// the Bus interface must agree, and the bus is free for one
			// node, non-negative and monotone in payload beyond that.
			bus, hasBus := ic.(interconnect.Bus)
			if ic.Caps().HardwareBroadcast != hasBus {
				t.Fatalf("HardwareBroadcast cap %v but Bus implemented = %v", ic.Caps().HardwareBroadcast, hasBus)
			}
			if hasBus {
				if bt := bus.BroadcastTime(1<<20, 1); bt != 0 {
					t.Errorf("BroadcastTime(_, 1) = %v, want 0", bt)
				}
				var prev sim.Time
				for i, bytes := range []int{8, 4096, 1 << 20} {
					bt := bus.BroadcastTime(bytes, 4)
					nonNeg("BroadcastTime", bt)
					if i > 0 && bt < prev {
						t.Errorf("BroadcastTime(%d, 4) = %v < smaller payload %v", bytes, bt, prev)
					}
					prev = bt
				}
			}

			if ic.Name() == "" {
				t.Error("empty Name()")
			}
			if got := ic.Caps().String(); got == "" {
				t.Error("empty Caps().String()")
			}

			// Protocol-switched backends: the EagerRendezvous flag and
			// the ProtocolModel interface must agree, and both priced
			// paths obey the non-negativity/monotonicity contract.
			pm, hasProto := ic.(interconnect.ProtocolModel)
			if ic.Caps().EagerRendezvous != hasProto {
				t.Fatalf("EagerRendezvous cap %v but ProtocolModel implemented = %v",
					ic.Caps().EagerRendezvous, hasProto)
			}
			if hasProto {
				if pm.RegCacheCapacity() < 1 {
					t.Errorf("RegCacheCapacity() = %d, want >= 1", pm.RegCacheCapacity())
				}
				for _, hops := range []int{0, 1, 4} {
					var prevE, prevC, prevW sim.Time
					for i, bytes := range []int{0, 8, 64, 4096, 1 << 20} {
						e := pm.EagerTime(bytes, hops)
						cold := pm.RendezvousTime(bytes, hops, false)
						warm := pm.RendezvousTime(bytes, hops, true)
						nonNeg("EagerTime", e)
						nonNeg("RendezvousTime(cold)", cold)
						nonNeg("RendezvousTime(warm)", warm)
						if warm > cold {
							t.Errorf("RendezvousTime(%d, %d, registered) = %v > unregistered %v",
								bytes, hops, warm, cold)
						}
						if i > 0 && (e < prevE || cold < prevC || warm < prevW) {
							t.Errorf("protocol times not monotone at %d bytes, %d hops", bytes, hops)
						}
						prevE, prevC, prevW = e, cold, warm
					}
				}
			}
		})
	}
}

// TestHopSensitivity checks the HopSensitive capability flag tells the
// truth: hop-sensitive backends charge more for farther targets,
// insensitive ones charge the same.
func TestHopSensitivity(t *testing.T) {
	for _, name := range interconnect.Names() {
		ic, err := interconnect.New(name)
		if err != nil {
			t.Fatal(err)
		}
		near := ic.ContigTime(4096, 1)
		far := ic.ContigTime(4096, 6)
		if ic.Caps().HopSensitive {
			if far <= near {
				t.Errorf("%s: hop-sensitive but ContigTime hops=6 (%v) <= hops=1 (%v)", name, far, near)
			}
		} else if far != near {
			t.Errorf("%s: hop-insensitive but ContigTime differs by distance: %v vs %v", name, near, far)
		}
	}
}

// TestIdealIsFree pins the ideal backend's purpose: every cost is zero,
// its hardware broadcast included.
func TestIdealIsFree(t *testing.T) {
	ic, err := interconnect.New("ideal")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []sim.Time{
		ic.SendSetup(), ic.ContigTime(1<<20, 8), ic.StridedTime(1<<17, 8, 8),
		ic.(interconnect.Bus).BroadcastTime(1<<20, 64),
	} {
		if v != 0 {
			t.Fatalf("ideal backend charged %v, want 0", v)
		}
	}
}

package nic

import (
	"testing"

	"vbuscluster/internal/commcost"
	"vbuscluster/internal/interconnect"
)

func newTestVBus3D(t *testing.T) *VBus3D {
	t.Helper()
	v, err := NewVBus3D(DefaultVBus3DConfig())
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestVBus3DRegistered(t *testing.T) {
	ic, err := interconnect.New("vbus3d")
	if err != nil {
		t.Fatalf("vbus3d not registered: %v", err)
	}
	if ic.Name() != "vbus3d" {
		t.Fatalf("Name() = %q", ic.Name())
	}
	caps := ic.Caps()
	if !caps.DMAContig || !caps.PIOStrided || !caps.HopSensitive {
		t.Fatalf("caps = %v, want dma+pio+hops", caps)
	}
	if caps.HardwareBroadcast {
		t.Fatal("3D torus has no virtual bus; HardwareBroadcast must be false")
	}
}

func TestVBus3DPreferredGeometry(t *testing.T) {
	v := newTestVBus3D(t)
	cases := []struct {
		n    int
		want [3]int
	}{
		{1, [3]int{1, 1, 1}},
		{4, [3]int{2, 2, 1}},
		{16, [3]int{4, 2, 2}},
		{64, [3]int{4, 4, 4}},
		{256, [3]int{8, 8, 4}},
		{1024, [3]int{16, 8, 8}},
		{100, [3]int{5, 5, 4}},
	}
	for _, cse := range cases {
		dims, torus := v.PreferredGeometry(cse.n)
		if !torus {
			t.Errorf("n=%d: torus off", cse.n)
		}
		if len(dims) != 3 {
			t.Fatalf("n=%d: %d dims", cse.n, len(dims))
		}
		got := [3]int{dims[0], dims[1], dims[2]}
		if got != cse.want {
			t.Errorf("n=%d: dims %v, want %v", cse.n, got, cse.want)
		}
		if dims[0]*dims[1]*dims[2] < cse.n {
			t.Errorf("n=%d: geometry %v too small", cse.n, dims)
		}
	}
}

// The torus hop advantage: at equal hop counts the 3D card is at
// least as fast as the 2D card (leaner RDMA setup), and a 1024-node
// worst-case path is far shorter — 16 torus hops vs 62 mesh hops.
func TestVBus3DBeatsVBusAtScale(t *testing.T) {
	v3 := newTestVBus3D(t)
	v2, err := NewVBus(DefaultVBusConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a, b := commcost.New(v3, 0).Msg(8, 1), commcost.New(v2, 0).Msg(8, 1); a >= b {
		t.Errorf("3D small-message latency %v not below 2D %v", a, b)
	}
	// Worst-case contiguous transfer across the respective 1024-node
	// geometries: 16x8x8 torus diameter 16, 32x32 mesh diameter 62.
	if a, b := v3.ContigTime(4096, 16), v2.ContigTime(4096, 62); a >= b {
		t.Errorf("3D worst-case contig %v not below 2D %v", a, b)
	}
}

func TestVBus3DBroadcastIsSoftwareTree(t *testing.T) {
	v := newTestVBus3D(t)
	k := commcost.New(v, 0)
	if k.Bcast(1024, 1) != 0 {
		t.Fatal("single-node broadcast should be free")
	}
	// log2 growth: doubling the node count past a power of two adds
	// exactly one stage.
	t64, t128 := k.Bcast(1024, 64), k.Bcast(1024, 128)
	if t128 <= t64 {
		t.Fatalf("tree broadcast not growing: %v then %v", t64, t128)
	}
	stage := v.SendSetup() + v.wireTime(1024, 1)
	if t128-t64 != stage {
		t.Fatalf("stage delta %v, want %v", t128-t64, stage)
	}
}

func TestVBus3DValidation(t *testing.T) {
	cfg := DefaultVBus3DConfig()
	cfg.DMASetup = -1
	if _, err := NewVBus3D(cfg); err == nil {
		t.Fatal("negative DMASetup accepted")
	}
}

package nic

import (
	"testing"

	"vbuscluster/internal/commcost"
	"vbuscluster/internal/sim"
)

func defaultCards(t *testing.T) (*VBus, *Ethernet) {
	t.Helper()
	v, err := NewVBus(DefaultVBusConfig())
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEthernet(DefaultEthernetConfig())
	if err != nil {
		t.Fatal(err)
	}
	return v, e
}

func TestValidation(t *testing.T) {
	bad := DefaultVBusConfig()
	bad.DMASetup = -1
	if _, err := NewVBus(bad); err == nil {
		t.Fatal("negative DMA setup accepted")
	}
	badE := DefaultEthernetConfig()
	badE.BytesPerSecond = 0
	if _, err := NewEthernet(badE); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	badE = DefaultEthernetConfig()
	badE.Latency = -1
	if _, err := NewEthernet(badE); err == nil {
		t.Fatal("negative latency accepted")
	}
}

// §2.1: "a V-Bus network card provides about four times lower latency
// than the Fast Ethernet card."
func TestVBusLatencyRoughly4xBetterThanEthernet(t *testing.T) {
	v, e := defaultCards(t)
	ratio := float64(commcost.New(e, 0).Msg(8, 1)) / float64(commcost.New(v, 0).Msg(8, 1))
	if ratio < 3.0 || ratio > 10.0 {
		t.Fatalf("latency ratio ethernet/vbus = %.2f, want ~4-8x", ratio)
	}
}

// §1: "a V-Bus network card offers four times higher bandwidth ... than
// a fast Ethernet card" — measured as large-transfer goodput including
// setup.
func TestVBusBandwidthRoughly4xEthernet(t *testing.T) {
	v, e := defaultCards(t)
	const bytes = 1 << 20
	tv := v.SendSetup() + v.ContigTime(bytes, 2)
	te := e.SendSetup() + e.ContigTime(bytes, 2)
	bwV := float64(bytes) / tv.Seconds()
	bwE := float64(bytes) / te.Seconds()
	ratio := bwV / bwE
	if ratio < 3.0 || ratio > 40.0 {
		t.Fatalf("bandwidth ratio vbus/ethernet = %.2f, want >= ~4", ratio)
	}
	if bwE > 12.5e6 {
		t.Fatalf("ethernet goodput %.0f exceeds wire rate", bwE)
	}
}

func TestContigTimeMonotonicInSize(t *testing.T) {
	v, e := defaultCards(t)
	for _, c := range []Card{v, e} {
		prev := sim.Time(-1)
		for _, b := range []int{1, 64, 4096, 1 << 20} {
			tt := c.ContigTime(b, 1)
			if tt <= prev {
				t.Fatalf("%s: ContigTime not increasing at %dB", c.Name(), b)
			}
			prev = tt
		}
	}
}

func TestVBusContigGrowsWithHops(t *testing.T) {
	v, _ := defaultCards(t)
	if v.ContigTime(1024, 4) <= v.ContigTime(1024, 1) {
		t.Fatal("hop count should increase head latency")
	}
}

func TestEthernetHopsIrrelevant(t *testing.T) {
	_, e := defaultCards(t)
	if e.ContigTime(1024, 1) != e.ContigTime(1024, 5) {
		t.Fatal("ethernet is a shared medium; hops must not matter")
	}
}

// The asymmetry the compiler exploits: strided transfers pay a
// per-element PIO cost, so for the same byte count they are much more
// expensive than contiguous DMA.
func TestStridedMuchSlowerThanContig(t *testing.T) {
	v, _ := defaultCards(t)
	elems, sz := 4096, 8
	contig := v.ContigTime(elems*sz, 2)
	strided := v.StridedTime(elems, sz, 2)
	if strided < 2*contig {
		t.Fatalf("strided (%v) should dwarf contiguous (%v)", strided, contig)
	}
	// And the gap must be the per-element charge.
	want := contig + sim.Time(elems)*DefaultVBusConfig().PIOPerElement
	if strided != want {
		t.Fatalf("strided = %v, want %v", strided, want)
	}
}

func TestStridedZeroElems(t *testing.T) {
	v, e := defaultCards(t)
	if v.StridedTime(0, 8, 1) != 0 || e.StridedTime(0, 8, 1) != 0 {
		t.Fatal("zero-element strided transfer should be free")
	}
}

// The middle-granularity tradeoff in one inequality: shipping 2x the
// bytes contiguously beats shipping the exact elements strided, for
// large enough regions.
func TestApproxContigBeatsExactStrided(t *testing.T) {
	v, _ := defaultCards(t)
	elems, sz := 8192, 8
	exact := v.StridedTime(elems, sz, 2)
	approx := v.ContigTime(2*elems*sz, 2) // stride-2 region widened to dense
	if approx >= exact {
		t.Fatalf("approximate contiguous (%v) should beat exact strided (%v)", approx, exact)
	}
}

func TestVBusHardwareBroadcastBeatsEthernetTree(t *testing.T) {
	v, e := defaultCards(t)
	for _, nodes := range []int{2, 4, 16} {
		bv := commcost.New(v, 0).Bcast(1<<16, nodes)
		be := commcost.New(e, 0).Bcast(1<<16, nodes)
		if bv >= be {
			t.Fatalf("nodes=%d: vbus broadcast (%v) should beat ethernet tree (%v)", nodes, bv, be)
		}
	}
}

func TestBroadcastTrivialCases(t *testing.T) {
	v, e := defaultCards(t)
	if commcost.New(v, 0).Bcast(1024, 1) != 0 || commcost.New(e, 0).Bcast(1024, 1) != 0 {
		t.Fatal("broadcast to self should be free")
	}
}

func TestVBusBroadcastScalesSublinearly(t *testing.T) {
	v, _ := defaultCards(t)
	b4 := v.BroadcastTime(1<<16, 4)
	b16 := v.BroadcastTime(1<<16, 16)
	if float64(b16) > 2.0*float64(b4) {
		t.Fatalf("virtual-bus broadcast should be nearly node-count independent: %v (4) vs %v (16)", b4, b16)
	}
}

func TestEthernetBroadcastLogStages(t *testing.T) {
	_, e := defaultCards(t)
	k := commcost.New(e, 0)
	one := e.SendSetup() + e.ContigTime(100, 0)
	if k.Bcast(100, 2) != one {
		t.Fatal("2-node tree should be one stage")
	}
	if k.Bcast(100, 4) != 2*one {
		t.Fatal("4-node tree should be two stages")
	}
	if k.Bcast(100, 5) != 3*one {
		t.Fatal("5-node tree should be three stages")
	}
}

func TestMeshConfigRoundTrip(t *testing.T) {
	v, _ := defaultCards(t)
	mc := v.MeshConfig(2, 2)
	if mc.Width != 2 || mc.Height != 2 {
		t.Fatal("geometry not propagated")
	}
	if mc.RouterLatency != DefaultVBusConfig().RouterLatency {
		t.Fatal("router latency not propagated")
	}
}

func TestCardNames(t *testing.T) {
	v, e := defaultCards(t)
	if v.Name() != "vbus" || e.Name() != "fast-ethernet" {
		t.Fatal("card names wrong")
	}
}

package commcost_test

import (
	"testing"

	"vbuscluster/internal/cluster"
	"vbuscluster/internal/commcost"
	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/sim"
)

func kernelFor(t *testing.T, fabric string) *commcost.Kernel {
	t.Helper()
	params, err := cluster.ParamsForFabric(fabric)
	if err != nil {
		t.Fatal(err)
	}
	return params.CommCost()
}

// Only a card that prices an eager/rendezvous choice gets a protocol
// model, a rendezvous threshold and registration caches; every classic
// fabric prices contiguous data on its capability-derived class.
func TestProtocolResolvedOnlyForSwitchedFabrics(t *testing.T) {
	for _, fabric := range fabrics {
		k := kernelFor(t, fabric)
		switched := fabric == "rdma"
		if got := k.Protocol() != nil; got != switched {
			t.Errorf("%s: protocol model resolved = %v, want %v", fabric, got, switched)
		}
		if got := k.RndvThreshold() > 0; got != switched {
			t.Errorf("%s: rendezvous threshold %d, want >0 = %v", fabric, k.RndvThreshold(), switched)
		}
		if got := k.NewRegCaches(3); (got != nil) != switched || (switched && len(got) != 3) {
			t.Errorf("%s: NewRegCaches(3) = %d caches, want switched = %v", fabric, len(got), switched)
		}
	}
}

// The thresholds the coalesce stage stamps: packing pays from 35
// elements on the V-Bus card and 45 on Ethernet, never on the idealized
// fabric; the rdma protocol switch sits at 441 elements (3521 bytes,
// cold cache, one hop).
func TestThresholds(t *testing.T) {
	want := map[string][2]int64{
		"vbus": {35, 0}, "ethernet": {45, 0}, "ideal": {0, 0}, "vbus3d": {13, 0}, "rdma": {43, 441},
	}
	for _, fabric := range fabrics {
		k := kernelFor(t, fabric)
		if got := [2]int64{k.PackThreshold(), k.RndvThreshold()}; got != want[fabric] {
			t.Errorf("%s: pack/rendezvous thresholds %v, want %v", fabric, got, want[fabric])
		}
	}
}

// Price runs once per transfer on every rank: it must not allocate on
// any path that leaves the registration cache's entry set unchanged.
func TestPriceDoesNotAllocate(t *testing.T) {
	warm := commcost.Access{Region: "A", Offset: 8, Elems: 4096, Stride: 1}
	for _, fabric := range []string{"vbus", "rdma"} {
		k := kernelFor(t, fabric)
		var cache *interconnect.RegCache
		if caches := k.NewRegCaches(1); caches != nil {
			cache = caches[0]
		}
		rndv := warm
		rndv.Proto = lmad.ProtoRndv
		k.Price(rndv, 1, cache) // registers the region
		for name, a := range map[string]commcost.Access{
			"contig":       {Region: "A", Elems: 64, Stride: 1},
			"eager":        {Region: "A", Elems: 64, Stride: 1, Proto: lmad.ProtoEager},
			"auto warm":    warm,
			"rndv warm":    rndv,
			"rndv anon":    {Elems: 4096, Stride: 1, Proto: lmad.ProtoRndv},
			"strided":      {Region: "A", Elems: 64, Stride: 3},
			"packed":       {Region: "A", Elems: 64, Stride: 3, Packed: true},
			"empty contig": {Region: "A", Stride: 1},
		} {
			if n := testing.AllocsPerRun(100, func() { k.Price(a, 2, cache) }); n != 0 {
				t.Errorf("%s %s: Price allocates %v times per call", fabric, name, n)
			}
		}
	}
}

// Tree and Bcast on every fabric: free for a single node, monotone in
// payload and in node count, the tree exactly ⌈log₂ n⌉ one-hop
// messages; on the ideal fabric every shape is free.
func TestTreeAndBcastShapes(t *testing.T) {
	sizes := []int{0, 8, 4096, 1 << 20}
	nodes := []int{1, 2, 3, 4, 7, 8, 16, 64, 1024}
	for _, fabric := range fabrics {
		k := kernelFor(t, fabric)
		for name, shape := range map[string]func(bytes, nodes int) sim.Time{"Tree": k.Tree, "Bcast": k.Bcast} {
			for _, n := range []int{0, 1} {
				if v := shape(1<<20, n); v != 0 {
					t.Errorf("%s: %s(1 MiB, %d) = %v, want 0", fabric, name, n, v)
				}
			}
			for i, b := range sizes {
				for j, n := range nodes {
					v := shape(b, n)
					if i > 0 && v < shape(sizes[i-1], n) {
						t.Errorf("%s: %s(%d, %d) = %v falls below the smaller payload", fabric, name, b, n, v)
					}
					if j > 0 && v < shape(b, nodes[j-1]) {
						t.Errorf("%s: %s(%d, %d) = %v falls below the smaller machine", fabric, name, b, n, v)
					}
				}
			}
		}
		for n := 2; n <= 1024; n++ {
			stages := 0
			for p := 1; p < n; p *= 2 {
				stages++
			}
			if got, want := k.Tree(64, n), sim.Time(stages)*k.Msg(64, 1); got != want {
				t.Fatalf("%s: Tree(64, %d) = %v, want %d one-hop messages = %v", fabric, n, got, stages, want)
			}
		}
	}
	ideal := kernelFor(t, "ideal")
	for _, v := range []sim.Time{ideal.Setup(), ideal.Msg(1<<20, 8), ideal.Tree(1<<20, 64), ideal.Bcast(1<<20, 64), ideal.Barrier(64, true)} {
		if v != 0 {
			t.Fatalf("ideal kernel charged %v, want 0", v)
		}
	}
}

// The paper's §2 claim, stated once: on the V-Bus card the hardware
// broadcast beats the p2p software tree at every machine size and
// payload.
func TestVBusBcastBeatsTree(t *testing.T) {
	k := kernelFor(t, "vbus")
	for _, n := range []int{2, 3, 4, 7, 8, 16, 64, 1024} {
		for b := 0; b <= 1<<20; b = max(8*b, 1) {
			if bus, tree := k.Bcast(b, n), k.Tree(b, n); bus >= tree {
				t.Errorf("%d nodes, %d B: bus broadcast %v does not beat the tree %v", n, b, bus, tree)
			}
		}
	}
}

package nic

import (
	"testing"

	"vbuscluster/internal/commcost"
	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/sim"
)

// The pack-and-coalesce path is priced by the machine's commcost
// kernel; these tests hold each card's crossover to the properties the
// coalesce stage relies on.

// testMemCopyPerByte mirrors cluster.DefaultParams().CPU.MemCopyPerByte
// (~200 MB/s copy on 2001 SDRAM); cluster sits above nic, so the value
// is repeated here rather than imported.
const testMemCopyPerByte = 5 * sim.Nanosecond

func packKernels(t *testing.T) map[string]*commcost.Kernel {
	t.Helper()
	v, e := defaultCards(t)
	ideal, err := interconnect.New("ideal")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*commcost.Kernel{
		"vbus":     commcost.New(v, testMemCopyPerByte),
		"ethernet": commcost.New(e, testMemCopyPerByte),
		"ideal":    commcost.New(ideal, testMemCopyPerByte),
	}
}

// packWins reports whether the kernel prices elems stride-3 elements
// strictly cheaper packed than over the strided path.
func packWins(k *commcost.Kernel, elems, hops int) bool {
	a := commcost.Access{Elems: int64(elems), Stride: 3}
	pio, _ := k.Price(a, hops, nil)
	a.Packed = true
	packed, _ := k.Price(a, hops, nil)
	return packed < pio
}

// Both real cards have a finite crossover, and PackThreshold is exact:
// packing loses at crossover-1 and wins at crossover.
func TestPackCrossoverExact(t *testing.T) {
	kernels := packKernels(t)
	for _, name := range []string{"vbus", "ethernet"} {
		k := kernels[name]
		x := int(k.PackThreshold())
		if x < 2 || x > 4096 {
			t.Fatalf("%s: crossover %d outside the plausible range [2,4096]", name, x)
		}
		if packWins(k, x-1, 1) {
			t.Errorf("%s: packing already wins at %d, below the reported crossover %d", name, x-1, x)
		}
		if !packWins(k, x, 1) {
			t.Errorf("%s: packing does not win at the reported crossover %d", name, x)
		}
	}
}

// Both cost curves share the wire term, so the crossover cannot depend
// on hop distance — the property that lets the compiler stamp a single
// per-machine threshold instead of a per-pair one.
func TestPackCrossoverHopIndependent(t *testing.T) {
	for name, k := range packKernels(t) {
		x := int(k.PackThreshold())
		if x == 0 {
			continue
		}
		if packWins(k, x-1, 3) || !packWins(k, x, 3) {
			t.Errorf("%s: the 1-hop crossover %d is not the 3-hop crossover", name, x)
		}
	}
}

// The idealized fabric charges nothing for PIO, so the pack path's
// memory copies can never pay off.
func TestPackNeverWinsOnIdeal(t *testing.T) {
	k := packKernels(t)["ideal"]
	if x := k.PackThreshold(); x != 0 {
		t.Fatalf("ideal fabric reports crossover %d, want 0 (never)", x)
	}
	if packWins(k, 1<<16, 1) {
		t.Error("packing wins on the ideal fabric at 65536 elems")
	}
}

// Once packing wins it keeps winning: both curves are linear with
// constant slopes, and PackThreshold's search relies on it.
func TestPackWinsMonotone(t *testing.T) {
	for name, k := range packKernels(t) {
		won := false
		for e := 2; e <= 512; e++ {
			w := packWins(k, e, 1)
			if won && !w {
				t.Fatalf("%s: packing wins at %d elems but loses at %d", name, e-1, e)
			}
			won = w
		}
	}
}

// Degenerate shapes: a single element is already contiguous and never
// packs, and an empty packed transfer costs nothing.
func TestPackDegenerateShapes(t *testing.T) {
	for name, k := range packKernels(t) {
		if packWins(k, 1, 1) {
			t.Errorf("%s: single-element transfer packs", name)
		}
		if ps, _ := k.Price(commcost.Access{Stride: 3, Packed: true}, 1, nil); ps != 0 {
			t.Errorf("%s: empty packed transfer costs %v", name, ps)
		}
	}
}

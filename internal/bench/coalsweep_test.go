package bench

import (
	"testing"

	"vbuscluster/internal/core"
)

// A small sweep straddling the V-Bus crossover: CoalSweep's built-in
// assertions (payload verification, model-packs-must-win) already run
// inside; the test pins the external shape and the crossover ordering.
func TestCoalSweepCrossover(t *testing.T) {
	elems := []int{8, 64, 256}
	points, err := CoalSweep(elems, []int{2, 4}, Env{Fabric: "vbus"})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(elems)*2 {
		t.Fatalf("got %d points, want %d", len(points), len(elems)*2)
	}
	for _, pt := range points {
		if pt.PIO <= 0 || pt.Packed <= 0 {
			t.Errorf("point %+v has non-positive time", pt)
		}
		switch pt.Elems {
		case 8:
			if pt.ModelPacks || pt.Winner() != "pio" {
				t.Errorf("8 elems below the vbus crossover should stay PIO: %+v", pt)
			}
		case 64, 256:
			if !pt.ModelPacks || pt.Winner() != "packed" {
				t.Errorf("%d elems past the vbus crossover should pack: %+v", pt.Elems, pt)
			}
		}
	}
}

// The ideal fabric's PIO path is free: the model must never pack, and
// the sweep must still verify payloads on both paths.
func TestCoalSweepIdealNeverPacks(t *testing.T) {
	points, err := CoalSweep([]int{16, 1024}, []int{4}, Env{Fabric: "ideal"})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		if pt.ModelPacks {
			t.Errorf("model packs on the ideal fabric: %+v", pt)
		}
	}
}

// Strides below 2 are contiguous — not a pack-vs-PIO question.
func TestCoalSweepRejectsContigStride(t *testing.T) {
	if _, err := CoalSweep([]int{8}, []int{1}, Env{}); err == nil {
		t.Fatal("stride 1 accepted")
	}
}

// End-to-end through the compiler: the same strided kernel compiled
// with and without -coalesce prints identical output in Full mode
// (coalescing is a transport decision, never a semantic one) and
// spends no more comm time with it on.
func TestCoalesceEndToEndEquivalence(t *testing.T) {
	src := StrideSource(1<<10, 3)
	run := func(coalesce bool) (string, int64, int64) {
		t.Helper()
		c, err := core.Compile(src, core.Options{NumProcs: 4, Coalesce: coalesce})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.RunParallel(core.Full)
		if err != nil {
			t.Fatal(err)
		}
		return res.Output, int64(res.Report.TotalXferTime()), res.Report.TotalCommBytes()
	}
	outOff, commOff, bytesOff := run(false)
	outOn, commOn, bytesOn := run(true)
	if outOff != outOn {
		t.Errorf("coalescing changed the program output:\noff: %q\non:  %q", outOff, outOn)
	}
	if bytesOff != bytesOn {
		t.Errorf("coalescing changed the accounted bytes: %d -> %d", bytesOff, bytesOn)
	}
	if commOn > commOff {
		t.Errorf("coalescing raised comm time: %d -> %d", commOff, commOn)
	}
}

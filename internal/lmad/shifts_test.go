package lmad

import (
	"math/rand"
	"testing"
)

// translate returns a copy of l shifted by delta elements.
func translate(l LMAD, delta int64) LMAD {
	l.Dims = append([]Dim(nil), l.Dims...)
	l.Offset += delta
	return l
}

// sweepShifts is the distance sweep OverlapShifts replaced, kept as the
// reference: every d tested in both directions on a translated copy.
func sweepShifts(a, b LMAD, shift, maxD, enumLimit int64) bool {
	for d := int64(1); d <= maxD; d++ {
		if Overlap(a, translate(b, shift*d), enumLimit) || Overlap(b, translate(a, shift*d), enumLimit) {
			return true
		}
	}
	return false
}

// randLattice draws a descriptor of the given rank. Strides are
// multiples of unit, so a pair drawn with a common unit has a
// non-trivial gcd; spans stay small enough that the reference sweep
// can enumerate, and large enough that some pairs exceed the test's
// enumeration limit and take Overlap's conservative path.
func randLattice(rng *rand.Rand, rank int, unit int64) LMAD {
	l := New("A", rng.Int63n(400)-200)
	for i := 0; i < rank; i++ {
		stride := unit * (1 + rng.Int63n(6))
		l = l.WithDim(stride, stride*rng.Int63n(9))
	}
	return l
}

func TestOverlapShiftsMatchesSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	const enumLimit = 40
	seen := map[string]int{}
	for i := 0; i < 24000; i++ {
		unit := int64(1)
		if rng.Intn(3) > 0 {
			unit = 1 + rng.Int63n(12)
		}
		a := randLattice(rng, rng.Intn(4), unit)
		b := randLattice(rng, rng.Intn(4), unit)
		if rng.Intn(8) == 0 {
			b = a // the test's commonest real case: a write against itself
		}
		shift := 1 + rng.Int63n(30)
		maxD := rng.Int63n(60)
		want := sweepShifts(a, b, shift, maxD, enumLimit)
		if got := OverlapShifts(a, b, shift, maxD, enumLimit) > 0; got != want {
			t.Fatalf("case %d: OverlapShifts(%v, %v, shift %d, maxD %d) = %v, sweep says %v",
				i, a, b, shift, maxD, got, want)
		}
		var g int64
		for _, d := range append(append([]Dim(nil), a.Dims...), b.Dims...) {
			g = gcd(g, d.Stride)
		}
		switch {
		case g == 0:
			seen["g=0"]++
		case g%shift != 0 && shift%g != 0:
			seen["shift∤g"]++
		}
		if a.Offset < b.Offset {
			seen["negative diff"]++
		}
		if !overlapExact(a, b, enumLimit) {
			seen["conservative"]++
			if want {
				seen["conservative true"]++
			}
		}
		if want {
			seen["overlap"]++
		}
		seen["rank"+string(rune('0'+a.Rank()))]++
	}
	for _, k := range []string{"g=0", "shift∤g", "negative diff", "conservative", "conservative true", "overlap", "rank0", "rank1", "rank2", "rank3"} {
		if seen[k] < 200 {
			t.Errorf("only %d cases of kind %q; the generator no longer covers it", seen[k], k)
		}
	}
}

// The loop-index-is-the-fast-subscript case the stepped form exists
// for: a column of C(I,J) per iteration of DO I, 1023 distances, and
// none of them in the residue class — answered without one exact test.
func TestOverlapShiftsColumnMajorRow(t *testing.T) {
	row := New("C", 0).WithDim(1024, 1024*1023)
	if OverlapShifts(row, row, 1, 1023, 1<<16) != 0 {
		t.Fatal("rows of a column-major matrix reported overlapping")
	}
	if n := testing.AllocsPerRun(10, func() { OverlapShifts(row, row, 1, 1023, 1<<16) }); n != 0 {
		t.Fatalf("OverlapShifts allocates %v times on the rank-1 path", n)
	}
	if d := OverlapShifts(row, row, 512, 1023, 1<<16); d != 2 {
		t.Fatalf("shift 512 meets the stride-1024 lattice at d=2, not %d", d)
	}
}

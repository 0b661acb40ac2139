package lmad

import (
	"math/rand"
	"reflect"
	"testing"
)

// planByEnumeration is Plan as it was before the run form existed —
// every offset enumerated, sorted and deduplicated up front — kept as
// the reference PlanRuns is checked against.
func planByEnumeration(l LMAD, g Grain) []Transfer {
	if len(l.Dims) == 0 {
		return []Transfer{{Offset: l.Offset, Elems: 1, Stride: 1}}
	}
	if g == Coarse {
		return []Transfer{{Offset: l.Offset, Elems: l.High() - l.Low() + 1, Stride: 1}}
	}
	offsets, mapping := Split(l)
	var out []Transfer
	for _, off := range offsets.Enumerate(1 << 22) {
		tr := Transfer{Offset: off, Elems: mapping.Trips(), Stride: mapping.Stride}
		if g == Middle || mapping.Stride == 1 {
			tr.Elems, tr.Stride = mapping.Span+1, 1
		}
		out = append(out, tr)
	}
	return out
}

func TestPlanRunsMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var selfOverlap, zeroSpan, nested int
	for i := 0; i < 6000; i++ {
		l := New("A", rng.Int63n(200)-100)
		for r := rng.Intn(5); r > 0; r-- {
			stride := 1 + rng.Int63n(12)
			if rng.Intn(3) == 0 {
				stride *= 16 // far enough apart to nest above the small ones
			}
			d := Dim{Stride: stride, Span: stride * rng.Int63n(6)}
			if d.Span == 0 {
				zeroSpan++
			}
			// Built directly: WithDim would drop the zero-span dimensions
			// a restricted partition can carry.
			l.Dims = append(l.Dims, d)
		}
		for _, g := range []Grain{Fine, Middle, Coarse} {
			want := planByEnumeration(l, g)
			runs := PlanRuns(l, g)
			got := Plan(l, -1, g)
			if runs.N != int64(len(want)) {
				t.Fatalf("case %d %v %v: run form counts %d transfers, enumeration %d", i, l, g, runs.N, len(want))
			}
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d %v %v: materialised run form\n%v\nenumeration\n%v", i, l, g, got, want)
			}
			for _, tr := range want {
				if tr.Elems != runs.Elems || tr.Stride != runs.Stride {
					t.Fatalf("case %d %v %v: transfer %+v does not have the run's shape %+v", i, l, g, tr, runs.Shape())
				}
			}
			if g != Coarse && len(l.Dims) > 1 {
				if runs.points != nil {
					selfOverlap++
				} else {
					nested++
				}
			}
		}
	}
	if selfOverlap < 500 || nested < 500 || zeroSpan < 500 {
		t.Fatalf("generator covers %d self-overlapping and %d nested offset lattices, %d zero-span dimensions; want ≥ 500 each",
			selfOverlap, nested, zeroSpan)
	}
}

// A rank with no iterations holds the zero Runs; it must enumerate no
// offsets (a walk of its empty lattice would yield offset 0 once — the
// race check then saw a phantom box on every idle rank of a 64-rank
// compile of a 16-trip loop).
func TestZeroRunsHasNoTransfers(t *testing.T) {
	var r Runs
	r.Each(func(off int64) { t.Fatalf("zero Runs yields offset %d", off) })
	if got := r.Transfers(); len(got) != 0 {
		t.Fatalf("zero Runs materialises %v", got)
	}
}

package lmad

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// checkCover checks spans against the elements of plan, enumerated one
// by one: every span holds only transfer elements, every transfer
// element lies in exactly one span, and the spans are sorted, disjoint
// and non-adjacent.
func checkCover(t *testing.T, plan []Transfer, spans []Span) {
	t.Helper()
	want := map[int64]bool{}
	for _, tr := range plan {
		for k := int64(0); k < tr.Elems; k++ {
			want[tr.Offset+k*tr.Stride] = true
		}
	}
	got := map[int64]int{}
	for i, s := range spans {
		if s.Lo >= s.Hi {
			t.Fatalf("plan %v: span %d %v is empty", plan, i, s)
		}
		if i > 0 && s.Lo <= spans[i-1].Hi {
			t.Fatalf("plan %v: span %d %v overlaps or touches %v", plan, i, s, spans[i-1])
		}
		for x := s.Lo; x < s.Hi; x++ {
			if !want[x] {
				t.Fatalf("plan %v: span %v holds %d, which no transfer moves", plan, s, x)
			}
			got[x]++
		}
	}
	for x := range want {
		if got[x] != 1 {
			t.Fatalf("plan %v: element %d lies in %d spans, want 1", plan, x, got[x])
		}
	}
}

func TestCoverTable(t *testing.T) {
	tr := func(off, elems, stride int64) Transfer { return Transfer{Offset: off, Elems: elems, Stride: stride} }
	for _, c := range []struct {
		name string
		plan []Transfer
		want []Span
	}{
		{"empty plan", nil, nil},
		{"zero-element transfers", []Transfer{tr(4, 0, 1), tr(9, 0, 3)}, nil},
		{"single elements", []Transfer{tr(7, 1, 1), tr(3, 1, 5), tr(8, 1, 2)},
			[]Span{{3, 4}, {7, 9}}},
		{"overlapping contiguous", []Transfer{tr(10, 5, 1), tr(0, 4, 1), tr(12, 8, 1), tr(4, 2, 1)},
			[]Span{{0, 6}, {10, 20}}},
		{"strided inside contiguous", []Transfer{tr(0, 10, 1), tr(1, 4, 3)},
			[]Span{{0, 11}}},
		{"strided rows band into columns", []Transfer{tr(0, 3, 10), tr(1, 3, 10), tr(2, 3, 10)},
			[]Span{{0, 3}, {10, 13}, {20, 23}}},
		{"a full band is one span", []Transfer{tr(2, 3, 10), tr(0, 3, 10), tr(1, 3, 10), tr(3, 3, 10), tr(4, 3, 10),
			tr(5, 3, 10), tr(6, 3, 10), tr(7, 3, 10), tr(8, 3, 10), tr(9, 3, 10), tr(4, 3, 10)},
			[]Span{{0, 30}}},
		{"mixed strides and shapes", []Transfer{tr(0, 3, 4), tr(1, 3, 4), tr(2, 2, 4), tr(0, 2, 6)},
			[]Span{{0, 3}, {4, 7}, {8, 10}}},
		{"stride beyond the array", []Transfer{tr(3, 1, 1000), tr(2, 2, 1000)},
			[]Span{{2, 4}, {1002, 1003}}},
	} {
		got := Cover(c.plan)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: Cover = %v, want %v", c.name, got, c.want)
		}
		checkCover(t, c.plan, got)
	}
}

// TestCoverMatchesEnumeration checks the cover of random plans —
// hand-rolled ones mixing every shape, and the planner's own over
// random descriptors at every grain — against enumeration.
func TestCoverMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 3000; i++ {
		var plan []Transfer
		for n := rng.Intn(8); n > 0; n-- {
			tr := Transfer{Offset: rng.Int63n(60), Elems: rng.Int63n(6), Stride: 1}
			switch rng.Intn(3) {
			case 1:
				tr.Stride = 1 + rng.Int63n(8)
			case 2:
				tr.Stride = 50 + rng.Int63n(100) // steps past the array
			}
			plan = append(plan, tr)
			for k := rng.Intn(4); k > 0; k-- { // a band's neighbours
				tr.Offset += rng.Int63n(3)
				plan = append(plan, tr)
			}
		}
		checkCover(t, plan, Cover(plan))
	}
	for i := 0; i < 2000; i++ {
		l := New("A", rng.Int63n(20))
		for r := 1 + rng.Intn(3); r > 0; r-- {
			stride := 1 + rng.Int63n(12)
			l = l.WithDim(stride, stride*rng.Int63n(6))
		}
		plan := PlanRuns(l, Grain(rng.Intn(3))).Transfers()
		checkCover(t, plan, Cover(plan))
	}
}

// The cover of contiguous transfers costs per transfer, whatever their
// length, and a fine-grain plan's rows band into columns without a
// visit per element: the plans here hold 3·2^58 and 2^32 elements.
func TestCoverCostsPerSpan(t *testing.T) {
	start := time.Now()
	const huge = int64(1) << 58
	contig := []Transfer{{Offset: 0, Elems: huge, Stride: 1}, {Offset: huge / 2, Elems: huge, Stride: 1},
		{Offset: 3 * huge, Elems: huge, Stride: 1}}
	if got, want := Cover(contig), []Span{{0, 3 * huge / 2}, {3 * huge, 4 * huge}}; !reflect.DeepEqual(got, want) {
		t.Errorf("contiguous cover %v, want %v", got, want)
	}
	const n = int64(1) << 16
	rows := make([]Transfer, n)
	for i := range rows {
		rows[i] = Transfer{Offset: int64(i), Elems: n, Stride: n}
	}
	if got, want := Cover(rows), []Span{{0, n * n}}; !reflect.DeepEqual(got, want) {
		t.Errorf("banded cover %v, want %v", got, want)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("covers took %v", d)
	}
}

package lmad

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Figure 2 of the paper: DO i=1,11,2 accessing A(i) — stride 2, six
// accesses (offsets 0,2,...,10 with A(1) at offset 0).
func TestFigure2ConstantStride(t *testing.T) {
	l := New("A", 0).WithDim(2, 10)
	got := l.Enumerate(100)
	want := []int64{0, 2, 4, 6, 8, 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("enumerate = %v, want %v", got, want)
	}
	if l.Count() != 6 {
		t.Fatalf("count = %d", l.Count())
	}
}

// Figure 3: DO i=1,4 accessing A(i*2-1) — the subscript 2i-1 gives a
// consistent stride of 2 even though the value changes.
func TestFigure3VariantSubscript(t *testing.T) {
	// A(1), A(3), A(5), A(7) → offsets 0,2,4,6.
	l := New("A", 0).WithDim(2, 6)
	got := l.Enumerate(100)
	want := []int64{0, 2, 4, 6}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("enumerate = %v, want %v", got, want)
	}
}

// Figure 4: REAL A(14,*) accessed as A(K, J+26*(I-1)) under
// DO I=1,2 / DO J=1,2 / DO K=1,10,3. Column-major linearization gives
// stride 3 span 9 for K, stride 14 span 14 for J, stride 364 span 364
// for I.
func TestFigure4NestedLMAD(t *testing.T) {
	l := New("A", 0).
		WithDim(14*26, 14*26). // I
		WithDim(14, 14).       // J
		WithDim(3, 9)          // K
	if l.Count() != 2*2*4 {
		t.Fatalf("count = %d, want 16", l.Count())
	}
	got := l.Enumerate(1000)
	// Spot-check the paper's diagram: first row of accesses at
	// 0,3,6,9 then the J step lands at 14.
	for _, off := range []int64{0, 3, 6, 9, 14, 17, 364, 378} {
		found := false
		for _, g := range got {
			if g == off {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("offset %d missing from %v", off, got)
		}
	}
	if l.String() != "A^{364,14,3}_{364,14,9}+0" {
		t.Fatalf("written form = %s", l.String())
	}
}

func TestWithDimNormalization(t *testing.T) {
	// Zero-trip and zero-stride dims vanish.
	l := New("A", 5).WithDim(0, 0).WithDim(3, 0)
	if l.Rank() != 0 {
		t.Fatalf("rank = %d", l.Rank())
	}
	// Negative stride flips to positive with adjusted offset.
	l = New("A", 10).WithDim(-2, -6)
	if l.Offset != 4 || l.Dims[0].Stride != 2 || l.Dims[0].Span != 6 {
		t.Fatalf("normalized = %+v", l)
	}
	// Ragged span rounds down to a whole number of strides.
	l = New("A", 0).WithDim(3, 10)
	if l.Dims[0].Span != 9 {
		t.Fatalf("span = %d, want 9", l.Dims[0].Span)
	}
}

func TestMismatchedSignsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative stride with positive span did not panic")
		}
	}()
	New("A", 0).WithDim(-2, 6)
}

func TestLowHigh(t *testing.T) {
	l := New("A", 7).WithDim(10, 30).WithDim(1, 4)
	if l.Low() != 7 || l.High() != 41 {
		t.Fatalf("bounds = [%d,%d]", l.Low(), l.High())
	}
}

func TestCoalesceDenseRows(t *testing.T) {
	// 5 rows of 10 contiguous elements, rows 10 apart: one dense run.
	l := New("A", 0).WithDim(10, 40).WithDim(1, 9)
	c := l.Coalesce()
	if !c.IsContiguous() {
		t.Fatalf("coalesced = %+v not contiguous", c)
	}
	if c.High() != 49 {
		t.Fatalf("high = %d", c.High())
	}
}

func TestCoalesceDoesNotMergeGapped(t *testing.T) {
	// Rows 12 apart with runs of 10: gaps of 2 remain.
	l := New("A", 0).WithDim(12, 48).WithDim(1, 9)
	if l.Coalesce().IsContiguous() {
		t.Fatal("gapped rows wrongly coalesced")
	}
}

func TestCoalescePreservesAccessSet(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := New("A", int64(rng.Intn(50)))
		for d := 0; d < rng.Intn(3)+1; d++ {
			stride := int64(rng.Intn(6) + 1)
			trips := int64(rng.Intn(5) + 1)
			l = l.WithDim(stride, stride*(trips-1))
		}
		a := l.Enumerate(1 << 16)
		b := l.Coalesce().Enumerate(1 << 16)
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEnumerateLimitPanics(t *testing.T) {
	l := New("A", 0).WithDim(1, 1<<20)
	defer func() {
		if recover() == nil {
			t.Fatal("limit not enforced")
		}
	}()
	l.Enumerate(10)
}

func TestEnumerateDedups(t *testing.T) {
	// Two dims generating overlapping addresses: 0,1,2 + 0,1 →
	// {0,1,2,3}.
	l := New("A", 0).WithDim(1, 2).WithDim(1, 1)
	got := l.Enumerate(100)
	want := []int64{0, 1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("enumerate = %v", got)
	}
}

func TestOverlapExact(t *testing.T) {
	evens := New("A", 0).WithDim(2, 20)
	odds := New("A", 1).WithDim(2, 20)
	if Overlap(evens, odds, 1000) {
		t.Fatal("disjoint interleaved sets reported overlapping")
	}
	if !Overlap(evens, evens, 1000) {
		t.Fatal("identical sets reported disjoint")
	}
	shifted := New("A", 2).WithDim(2, 20)
	if !Overlap(evens, shifted, 1000) {
		t.Fatal("intersecting sets reported disjoint")
	}
}

func TestOverlapDisjointIntervals(t *testing.T) {
	a := New("A", 0).WithDim(1, 9)
	b := New("A", 100).WithDim(1, 9)
	if Overlap(a, b, 10) {
		t.Fatal("far-apart intervals overlap")
	}
	if BoundsOverlap(a, b) {
		t.Fatal("bounds overlap")
	}
}

func TestOverlapRank1ExactEvenWhenHuge(t *testing.T) {
	// Rank-1 lattices go through the CRT fast path, which is exact at
	// any size: interleaved even/odd lattices never intersect.
	evens := New("A", 0).WithDim(2, 1<<30)
	odds := New("A", 1).WithDim(2, 1<<30)
	if Overlap(evens, odds, 100) {
		t.Fatal("CRT path missed the parity disjointness")
	}
}

func TestOverlapConservativeFallback(t *testing.T) {
	// Huge rank-2 interleaved sets exceed the enumeration limit: the
	// conservative answer must be true (never a false negative).
	a := New("A", 0).WithDim(1<<20, 1<<30).WithDim(2, 1<<18)
	b := New("A", 1).WithDim(1<<20, 1<<30).WithDim(2, 1<<18)
	if !Overlap(a, b, 100) {
		t.Fatal("conservative fallback returned false")
	}
}

// Property: Overlap with enumeration agrees with brute-force set
// intersection.
func TestOverlapProperty(t *testing.T) {
	gen := func(rng *rand.Rand) LMAD {
		l := New("A", int64(rng.Intn(30)))
		for d := 0; d < rng.Intn(2)+1; d++ {
			stride := int64(rng.Intn(5) + 1)
			trips := int64(rng.Intn(6) + 1)
			l = l.WithDim(stride, stride*(trips-1))
		}
		return l
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := gen(rng), gen(rng)
		got := Overlap(a, b, 1<<16)
		want := false
		bs := map[int64]bool{}
		for _, o := range b.Enumerate(1 << 16) {
			bs[o] = true
		}
		for _, o := range a.Enumerate(1 << 16) {
			if bs[o] {
				want = true
				break
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStringForm(t *testing.T) {
	if s := New("B", 3).String(); s != "B+3" {
		t.Fatalf("scalar form = %s", s)
	}
	l := New("A", 0).WithDim(10, 20).WithDim(1, 4)
	if l.String() != "A^{10,1}_{20,4}+0" {
		t.Fatalf("form = %s", l.String())
	}
}

func TestRestrictDim(t *testing.T) {
	// 8 rows of a stride-10 dimension; take rows 2..5 (4 trips).
	l := New("A", 5).WithDim(10, 70).WithDim(1, 3)
	r := l.RestrictDim(0, 2, 4)
	if r.Offset != 25 || r.Dims[0].Span != 30 {
		t.Fatalf("restricted = %+v", r)
	}
	if r.Count() != 16 {
		t.Fatalf("count = %d", r.Count())
	}
	// Single-trip restriction drops the dimension.
	one := l.RestrictDim(0, 3, 1)
	if one.Rank() != 1 || one.Offset != 35 {
		t.Fatalf("single-trip = %+v", one)
	}
}

func TestRestrictDimBoundsPanic(t *testing.T) {
	l := New("A", 0).WithDim(10, 70)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range restriction accepted")
		}
	}()
	l.RestrictDim(0, 5, 5)
}

// The rank-1 CRT fast path must agree with brute force on random
// lattices.
func TestLattice1OverlapProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() LMAD {
			l := New("A", int64(rng.Intn(40)))
			if rng.Intn(4) > 0 {
				stride := int64(rng.Intn(7) + 1)
				trips := int64(rng.Intn(10) + 1)
				l = l.WithDim(stride, stride*(trips-1))
			}
			return l
		}
		a, b := mk(), mk()
		got := Overlap(a, b, 1<<16)
		bs := map[int64]bool{}
		for _, o := range b.Enumerate(1 << 16) {
			bs[o] = true
		}
		for _, o := range a.Enumerate(1 << 16) {
			if bs[o] {
				return got == true
			}
		}
		return got == false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

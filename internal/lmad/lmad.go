// Package lmad implements the Linear Memory Access Descriptor of
// Paek/Hoeflinger/Padua (the paper's §4): a precise symbolic summary of
// the memory locations an array reference touches within a program
// section. An LMAD is a base offset plus one dimension per enclosing
// loop whose index appears in the subscripts; each dimension is a
// (stride, span) pair — stride is the distance in elements between
// accesses generated by consecutive index values, span is the total
// distance from the first to the last element the dimension traverses.
//
// The package also implements the operations the compiler needs:
// enumeration (exact reproduction of the access set), coalescing,
// bounding intervals, overlap testing (the basis of the Access Region
// Test), and the §5.4 splitting into A_offsets / A_mapping that drives
// MPI_PUT/MPI_GET generation at the three communication granularities.
//
// All quantities are concrete int64 element counts: the front end
// constant-folds PARAMETER-sized programs before analysis, which is the
// regime the paper's benchmarks operate in.
package lmad

import (
	"fmt"
	"sort"
	"strings"
)

// Dim is one access dimension: movement through memory with a
// consistent stride.
type Dim struct {
	// Stride is the element distance between consecutive accesses of
	// this dimension. Always positive after normalization.
	Stride int64
	// Span is the element distance between the first and last access:
	// (trips-1) * Stride for a loop with that trip count.
	Span int64
}

// Trips reports how many index values the dimension covers.
func (d Dim) Trips() int64 {
	if d.Stride == 0 {
		return 1
	}
	return d.Span/d.Stride + 1
}

// LMAD is a linear memory access descriptor for one array.
type LMAD struct {
	// Array is the array name the descriptor summarizes.
	Array string
	// Offset is the base offset (elements) of the first access.
	Offset int64
	// Dims are ordered outermost loop first (the paper arranges "all
	// the stride and span pairs in the order of loop nest").
	Dims []Dim
}

// New builds a descriptor with no dimensions (a scalar access or an
// access invariant in all enclosing loops).
func New(array string, offset int64) LMAD {
	return LMAD{Array: array, Offset: offset}
}

// WithDim returns a copy of l with an appended (outer → inner order)
// dimension, as AddDim appends it.
func (l LMAD) WithDim(stride, span int64) LMAD {
	l.Dims = append(make([]Dim, 0, len(l.Dims)+1), l.Dims...)
	l.AddDim(stride, span)
	return l
}

// AddDim appends an (outer → inner order) dimension to l in place.
// Zero-stride or zero-trip dimensions are identity and dropped;
// negative strides are normalized by moving the base offset to the low
// end.
func (l *LMAD) AddDim(stride, span int64) {
	switch {
	case stride == 0 || span == 0:
		return
	case stride < 0:
		if span > 0 {
			panic(fmt.Sprintf("lmad: negative stride %d with positive span %d", stride, span))
		}
		l.Offset += span
		stride, span = -stride, -span
	case span < 0:
		panic(fmt.Sprintf("lmad: positive stride %d with negative span %d", stride, span))
	}
	// Round the span down to a whole number of strides; the last
	// partial step cannot generate an access.
	l.Dims = append(l.Dims, Dim{Stride: stride, Span: span - span%stride})
}

// Rank reports the number of dimensions.
func (l LMAD) Rank() int { return len(l.Dims) }

// Count reports the number of accesses the descriptor generates
// (counting multiplicity from internal overlap once each: Count is the
// lattice size, not the distinct-address count).
func (l LMAD) Count() int64 {
	n := int64(1)
	for _, d := range l.Dims {
		n *= d.Trips()
	}
	return n
}

// Low reports the smallest accessed offset.
func (l LMAD) Low() int64 { return l.Offset }

// High reports the largest accessed offset.
func (l LMAD) High() int64 {
	h := l.Offset
	for _, d := range l.Dims {
		h += d.Span
	}
	return h
}

// String renders the paper's written form: strides as superscripts,
// spans as subscripts, base offset after a plus sign — linearized as
// A^{s1,s2}_{p1,p2}+off.
func (l LMAD) String() string {
	var sb strings.Builder
	sb.WriteString(l.Array)
	if len(l.Dims) > 0 {
		sb.WriteString("^{")
		for i, d := range l.Dims {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", d.Stride)
		}
		sb.WriteString("}_{")
		for i, d := range l.Dims {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", d.Span)
		}
		sb.WriteString("}")
	}
	fmt.Fprintf(&sb, "+%d", l.Offset)
	return sb.String()
}

// Enumerate lists every accessed offset, deduplicated and sorted. It
// panics if the lattice exceeds limit points (guarding against
// accidental huge expansions in tests and overlap checks).
func (l LMAD) Enumerate(limit int64) []int64 {
	if c := l.Count(); c > limit {
		panic(fmt.Sprintf("lmad: enumerating %d accesses exceeds limit %d", c, limit))
	}
	offs := []int64{l.Offset}
	for _, d := range l.Dims {
		next := make([]int64, 0, int64(len(offs))*d.Trips())
		for k := int64(0); k <= d.Span; k += d.Stride {
			for _, o := range offs {
				next = append(next, o+k)
			}
		}
		offs = next
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	// Dedup: self-overlapping descriptors list each address once.
	out := offs[:0]
	var prev int64 = -1 << 62
	for _, o := range offs {
		if o != prev {
			out = append(out, o)
			prev = o
		}
	}
	return out
}

// Equal reports structural equality.
func (l LMAD) Equal(m LMAD) bool {
	if l.Array != m.Array || l.Offset != m.Offset || len(l.Dims) != len(m.Dims) {
		return false
	}
	for i := range l.Dims {
		if l.Dims[i] != m.Dims[i] {
			return false
		}
	}
	return true
}

// Coalesce simplifies the descriptor by merging adjacent dimensions
// whose accesses abut: an outer dimension with stride equal to the
// inner dimension's span+stride describes one continuous run and the
// two collapse (one of the paper's LMAD simplification operations).
// Dimensions are also sorted by decreasing stride first, which is
// behavior-preserving for the sum-lattice semantics.
func (l LMAD) Coalesce() LMAD {
	out := l
	out.Dims = append([]Dim(nil), l.Dims...)
	sort.SliceStable(out.Dims, func(i, j int) bool { return out.Dims[i].Stride > out.Dims[j].Stride })
	for changed := true; changed; {
		changed = false
		for i := 0; i+1 < len(out.Dims); i++ {
			outer, inner := out.Dims[i], out.Dims[i+1]
			if outer.Stride == inner.Span+inner.Stride {
				// The outer step lands exactly one past the inner run,
				// so the merged span is inner.Span + outer.Span.
				out.Dims[i+1] = Dim{Stride: inner.Stride, Span: inner.Span + outer.Span}
				out.Dims = append(out.Dims[:i], out.Dims[i+1:]...)
				changed = true
				break
			}
		}
	}
	return out
}

// IsContiguous reports whether the access set is a dense interval
// [Low, High] with unit stride.
func (l LMAD) IsContiguous() bool {
	c := l.Coalesce()
	if len(c.Dims) == 0 {
		return true
	}
	return len(c.Dims) == 1 && c.Dims[0].Stride == 1
}

// BoundsOverlap reports whether the bounding intervals of two
// descriptors intersect — the paper's §5.6 upper/lower bound check used
// to detect races before coarse/middle-grain data collecting.
func BoundsOverlap(a, b LMAD) bool {
	return a.Low() <= b.High() && b.Low() <= a.High()
}

// Overlap reports whether two descriptors access any common element.
// It is exact when the combined lattice is small enough to enumerate
// (enumLimit points); beyond that it falls back to the conservative
// bounding-interval test, which may report false positives but never
// false negatives — the safe direction for dependence testing.
func Overlap(a, b LMAD, enumLimit int64) bool {
	if !BoundsOverlap(a, b) {
		return false
	}
	// Exact fast path: two (at most) rank-1 lattices intersect iff the
	// congruences x ≡ offA (mod strideA), x ≡ offB (mod strideB) have a
	// common solution inside both ranges (CRT).
	if a.Rank() <= 1 && b.Rank() <= 1 {
		return lattice1Overlap(a, b)
	}
	if a.Count() <= enumLimit && b.Count() <= enumLimit {
		ae := a.Enumerate(enumLimit)
		be := b.Enumerate(enumLimit)
		i, j := 0, 0
		for i < len(ae) && j < len(be) {
			switch {
			case ae[i] == be[j]:
				return true
			case ae[i] < be[j]:
				i++
			default:
				j++
			}
		}
		return false
	}
	return true // conservative
}

// overlapExact reports whether Overlap answers exactly for this pair
// (the CRT path or the enumeration path) rather than with the
// conservative bounding-interval test. It depends only on ranks and
// counts, so it holds for every translation of either descriptor.
func overlapExact(a, b LMAD, enumLimit int64) bool {
	return (a.Rank() <= 1 && b.Rank() <= 1) || (a.Count() <= enumLimit && b.Count() <= enumLimit)
}

// OverlapShifts reports whether a and b meet at any iteration distance
// d = 1..maxD of a loop that displaces them by shift elements per
// iteration: Overlap(a, b+shift·d) or Overlap(b, a+shift·d) for some d
// — the Access Region Test's question for two references with equal
// loop coefficients. It returns a distance at which they meet, or 0
// when they meet at none, giving the answer of that sweep without
// making it. Distances whose bounding intervals miss are cut off in
// closed form; where Overlap is exact for the pair, two lattices can
// only share an element when their base offsets differ by a multiple
// of g = gcd of all their strides, so shift·d ≡ a.Offset − b.Offset
// (mod g) is solved once and only the d in that residue class reach
// the exact test; where Overlap is conservative, the first distance
// inside the bounding window already answers: they may meet there.
// shift must be positive.
func OverlapShifts(a, b LMAD, shift, maxD, enumLimit int64) int64 {
	if shift <= 0 {
		panic(fmt.Sprintf("lmad: OverlapShifts with shift %d", shift))
	}
	exact := overlapExact(a, b, enumLimit)
	if d := shiftedOverlap(a, b, shift, maxD, enumLimit, exact); d > 0 {
		return d
	}
	return shiftedOverlap(b, a, shift, maxD, enumLimit, exact)
}

// shiftedOverlap is one direction of OverlapShifts: the first d in
// 1..maxD at which a meets b+shift·d, or 0.
func shiftedOverlap(a, b LMAD, shift, maxD, enumLimit int64, exact bool) int64 {
	// The bounding intervals meet iff shift·d lies in [lo, hi].
	lo, hi := a.Low()-b.High(), a.High()-b.Low()
	dLo, dHi := max64(1, ceilDiv(lo, shift)), min64(maxD, floorDiv(hi, shift))
	if dLo > dHi {
		return 0
	}
	if !exact {
		return dLo // Overlap(a, b+shift·dLo) is the bounding test
	}
	var g int64
	for _, d := range a.Dims {
		g = gcd(g, d.Stride)
	}
	for _, d := range b.Dims {
		g = gcd(g, d.Stride)
	}
	diff := a.Offset - b.Offset
	step := int64(1)
	if g == 0 {
		// Two single elements: they meet at exactly one distance.
		if diff%shift != 0 || diff/shift < dLo || diff/shift > dHi {
			return 0
		}
		dLo, dHi = diff/shift, diff/shift
	} else {
		// shift·d ≡ diff (mod g) ⇔ d ≡ d0 (mod g/h), h = gcd(shift, g).
		h := gcd(shift, g)
		if diff%h != 0 {
			return 0
		}
		step = g / h
		inv, _ := extgcd(shift/h, step)
		d0 := mod(mod(diff/h, step)*mod(inv, step), step)
		dLo += mod(d0-dLo, step)
	}
	moved := b
	for d := dLo; d <= dHi; d += step {
		moved.Offset = b.Offset + shift*d
		if Overlap(a, moved, enumLimit) {
			return d
		}
	}
	return 0
}

// floorDiv and ceilDiv divide by a positive m, rounding toward -∞ / +∞.
func floorDiv(a, m int64) int64 {
	q := a / m
	if a%m < 0 {
		q--
	}
	return q
}

func ceilDiv(a, m int64) int64 { return -floorDiv(-a, m) }

// lattice1Overlap exactly intersects two rank-<=1 descriptors via the
// Chinese Remainder Theorem. Callers guarantee the bounding intervals
// already overlap.
func lattice1Overlap(a, b LMAD) bool {
	sa, sb := int64(1), int64(1)
	if a.Rank() == 1 {
		sa = a.Dims[0].Stride
	}
	if b.Rank() == 1 {
		sb = b.Dims[0].Stride
	}
	g := gcd(sa, sb)
	diff := b.Offset - a.Offset
	if diff%g != 0 {
		return false
	}
	// Solve a.Offset + sa*x ≡ b.Offset (mod sb): x ≡ diff/ g * inv(sa/g)
	// (mod sb/g). Walk to the first common value >= max(lows).
	lcm := sa / g * sb
	// Particular solution via extended gcd.
	x0, _ := extgcd(sa, sb)
	// common = a.Offset + sa * (diff/g * x0 mod (sb/g))
	m := sb / g
	k := mod(diff/g*x0, m)
	common := a.Offset + sa*k
	lo := max64(a.Low(), b.Low())
	hi := min64(a.High(), b.High())
	first := lo + mod(common-lo, lcm)
	return first <= hi
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a < 0 {
		return -a
	}
	return a
}

// extgcd returns x, y with a*x + b*y = gcd(a,b).
func extgcd(a, b int64) (int64, int64) {
	if b == 0 {
		return 1, 0
	}
	x, y := extgcd(b, a%b)
	return y, x - (a/b)*y
}

func mod(a, m int64) int64 {
	if m < 0 {
		m = -m
	}
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// RestrictDim returns a copy with dimension i narrowed to trips index
// values starting at startTrip (both in index-value units, 0-based).
// The base offset moves to the restricted range's first access. Used to
// carve a processor's partition out of a parallel-loop dimension.
func (l LMAD) RestrictDim(i int, startTrip, trips int64) LMAD {
	if i < 0 || i >= len(l.Dims) {
		panic(fmt.Sprintf("lmad: RestrictDim(%d) of rank-%d descriptor", i, len(l.Dims)))
	}
	d := l.Dims[i]
	if startTrip < 0 || trips < 1 || startTrip+trips > d.Trips() {
		panic(fmt.Sprintf("lmad: restriction [%d,+%d) outside %d trips", startTrip, trips, d.Trips()))
	}
	out := l
	out.Dims = append([]Dim(nil), l.Dims...)
	out.Offset += startTrip * d.Stride
	out.Dims[i] = Dim{Stride: d.Stride, Span: (trips - 1) * d.Stride}
	if trips == 1 {
		// Zero-span dimension is identity; drop it.
		out.Dims = append(out.Dims[:i], out.Dims[i+1:]...)
	}
	return out
}

// CycleDim returns a copy with dimension i narrowed to the cyclic
// partition {phase, phase+period, ...} of its index values (§5.3's
// cyclic assignment). ok=false when the partition is empty.
func (l LMAD) CycleDim(i int, phase, period int64) (LMAD, bool) {
	if i < 0 || i >= len(l.Dims) {
		panic(fmt.Sprintf("lmad: CycleDim(%d) of rank-%d descriptor", i, len(l.Dims)))
	}
	if phase < 0 || period <= 0 || phase >= period {
		panic(fmt.Sprintf("lmad: bad cyclic partition phase %d period %d", phase, period))
	}
	d := l.Dims[i]
	total := d.Trips()
	if phase >= total {
		return LMAD{}, false
	}
	trips := (total - phase + period - 1) / period
	out := l
	out.Dims = append([]Dim(nil), l.Dims...)
	out.Offset += phase * d.Stride
	out.Dims[i] = Dim{Stride: d.Stride * period, Span: d.Stride * period * (trips - 1)}
	if trips == 1 {
		out.Dims = append(out.Dims[:i], out.Dims[i+1:]...)
	}
	return out, true
}

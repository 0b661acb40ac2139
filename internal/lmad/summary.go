package lmad

import (
	"fmt"
	"sort"
	"strings"
)

// AccType classifies a descriptor by how its region is accessed within
// the summarized program section (§4.2).
type AccType int

// Access classifications.
const (
	// ReadOnly regions are only read.
	ReadOnly AccType = iota
	// WriteFirst regions are written before any read.
	WriteFirst
	// ReadWrite regions are read first and then read or written.
	ReadWrite
)

func (t AccType) String() string {
	switch t {
	case ReadOnly:
		return "ReadOnly"
	case WriteFirst:
		return "WriteFirst"
	case ReadWrite:
		return "ReadWrite"
	default:
		return fmt.Sprintf("AccType(%d)", int(t))
	}
}

// Summary is a summary set: the classified LMADs of one program
// section (a statement, loop, or region).
type Summary struct {
	Sets map[AccType][]LMAD
}

// NewSummary returns an empty summary set.
func NewSummary() *Summary {
	return &Summary{Sets: map[AccType][]LMAD{}}
}

// Add inserts a descriptor under the given classification, dropping
// exact duplicates.
func (s *Summary) Add(t AccType, l LMAD) {
	for _, have := range s.Sets[t] {
		if have.Equal(l) {
			return
		}
	}
	s.Sets[t] = append(s.Sets[t], l)
}

// All returns every descriptor regardless of classification.
func (s *Summary) All() []LMAD {
	var out []LMAD
	for _, t := range []AccType{ReadOnly, WriteFirst, ReadWrite} {
		out = append(out, s.Sets[t]...)
	}
	return out
}

// Arrays lists the distinct array names mentioned, sorted.
func (s *Summary) Arrays() []string {
	seen := map[string]bool{}
	for _, l := range s.All() {
		seen[l.Array] = true
	}
	out := make([]string, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// ByArray returns the descriptors of one array under one
// classification.
func (s *Summary) ByArray(t AccType, array string) []LMAD {
	var out []LMAD
	for _, l := range s.Sets[t] {
		if l.Array == array {
			out = append(out, l)
		}
	}
	return out
}

// Writes returns all written descriptors (WriteFirst + ReadWrite).
func (s *Summary) Writes() []LMAD {
	return append(append([]LMAD(nil), s.Sets[WriteFirst]...), s.Sets[ReadWrite]...)
}

// Reads returns all read descriptors (ReadOnly + ReadWrite).
func (s *Summary) Reads() []LMAD {
	return append(append([]LMAD(nil), s.Sets[ReadOnly]...), s.Sets[ReadWrite]...)
}

// Merge unions another summary into s. The merge rules follow §4.2:
// a region both written-first (in one branch) and read (in another)
// becomes ReadWrite. The test is at bounding-region granularity, the
// conservative direction.
func (s *Summary) Merge(o *Summary) {
	for t, ls := range o.Sets {
		for _, l := range ls {
			s.Add(t, l)
		}
	}
	s.normalize()
}

// normalize promotes descriptors that appear under conflicting
// classifications for the same array with overlapping bounds.
func (s *Summary) normalize() {
	conflicts := func(l LMAD, against ...AccType) bool {
		for _, t := range against {
			for _, m := range s.Sets[t] {
				if l.Array == m.Array && BoundsOverlap(l, m) {
					return true
				}
			}
		}
		return false
	}
	promote := func(from AccType, against ...AccType) {
		kept := s.Sets[from][:0]
		for _, l := range s.Sets[from] {
			if conflicts(l, against...) {
				s.Add(ReadWrite, l)
			} else {
				kept = append(kept, l)
			}
		}
		s.Sets[from] = kept
	}
	promote(ReadOnly, WriteFirst, ReadWrite)
	promote(WriteFirst, ReadOnly, ReadWrite)
}

// String renders the summary like the paper's Figure 5 boxes.
func (s *Summary) String() string {
	var sb strings.Builder
	for _, t := range []AccType{WriteFirst, ReadOnly, ReadWrite} {
		ls := s.Sets[t]
		if len(ls) == 0 {
			continue
		}
		strs := make([]string, len(ls))
		for i, l := range ls {
			strs[i] = l.String()
		}
		sort.Strings(strs)
		fmt.Fprintf(&sb, "%s: %s\n", t, strings.Join(strs, ", "))
	}
	return sb.String()
}

// Split is the paper's Definition 2: given a descriptor whose
// dimensions are in loop-nest order and the index (into Dims) of the
// dimension generated by the parallelized loop, split it into
// A_offsets (every dimension except the innermost, used to enumerate
// the base-offset lattice of the generated communications) and
// A_mapping (the innermost dimension, mapped onto a single contiguous
// or strided MPI_PUT/MPI_GET).
//
// The returned offsets LMAD keeps the original base offset; mapping is
// the extracted lowest dimension. A rank-0 descriptor maps to a single
// one-element transfer.
func Split(l LMAD) (offsets LMAD, mapping Dim) {
	offsets = LMAD{Array: l.Array, Offset: l.Offset}
	if len(l.Dims) == 0 {
		return offsets, Dim{Stride: 1, Span: 0}
	}
	offsets.Dims = append([]Dim(nil), l.Dims[:len(l.Dims)-1]...)
	return offsets, l.Dims[len(l.Dims)-1]
}

// Grain selects the communication granularity of §5.6.
type Grain int

// Granularities.
const (
	// Fine transfers exact regions: contiguous PUT/GET when the mapping
	// stride is 1, strided PUT/GET otherwise.
	Fine Grain = iota
	// Middle converts exact regions to approximate ones by forcing the
	// mapping stride to 1, so only contiguous PUT/GET are used at the
	// cost of shipping redundant bytes.
	Middle
	// Coarse transfers one approximate bounding region per offset of
	// the parallel dimension: all non-parallel dimensions are folded
	// into a single contiguous run.
	Coarse
)

func (g Grain) String() string {
	switch g {
	case Fine:
		return "fine"
	case Middle:
		return "middle"
	case Coarse:
		return "coarse"
	default:
		return fmt.Sprintf("Grain(%d)", int(g))
	}
}

// ParseGrain parses a granularity name.
func ParseGrain(s string) (Grain, error) {
	switch strings.ToLower(s) {
	case "fine":
		return Fine, nil
	case "middle":
		return Middle, nil
	case "coarse":
		return Coarse, nil
	}
	return 0, fmt.Errorf("lmad: unknown grain %q (want fine, middle or coarse)", s)
}

// Protocol is the compiler's per-transfer protocol stamp for fabrics
// whose contiguous path is switched between an eager bounce-buffer
// copy and a rendezvous registration + zero-copy DMA. ProtoAuto leaves
// the choice to the runtime, which consults the live registration cache
// per message.
type Protocol uint8

const (
	// ProtoAuto defers the eager/rendezvous choice to the runtime.
	ProtoAuto Protocol = iota
	// ProtoEager pins the transfer to the eager bounce-buffer path.
	ProtoEager
	// ProtoRndv pins the transfer to the rendezvous zero-copy path.
	ProtoRndv
)

// String renders the protocol stamp.
func (p Protocol) String() string {
	switch p {
	case ProtoAuto:
		return "auto"
	case ProtoEager:
		return "eager"
	case ProtoRndv:
		return "rndv"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Transfer is one generated MPI_PUT/MPI_GET: a base offset plus an
// element run. Strided transfers carry Stride > 1.
type Transfer struct {
	Offset int64
	Elems  int64
	Stride int64 // 1 = contiguous
	// Packed marks a strided transfer the coalescer rewrote into
	// pack → contiguous DMA burst → unpack because the fabric's pack
	// cost model says it beats per-element PIO at this element count.
	// Contiguous transfers are never packed.
	Packed bool
	// Proto is the compiler's eager/rendezvous stamp for contiguous
	// transfers on protocol-switched fabrics; zero (ProtoAuto) on every
	// other fabric and whenever the coalesce stage did not run.
	Proto Protocol
}

// planLimit bounds the transfers one descriptor may be materialised
// into (guarding against accidental huge expansions).
const planLimit = 1 << 22

// Runs is a §5.6 communication plan before enumeration: N transfers of
// one shape — Elems elements Stride apart, Definition 2's A_mapping —
// one at each distinct point of the offset lattice (A_offsets; a single
// point for a coarse-grain box or a rank-0 descriptor). The compiler
// prices and bound-checks plans in this form; Transfers materialises
// it for the run path.
type Runs struct {
	// Elems and Stride are the shape every transfer shares.
	Elems, Stride int64
	// N is the number of transfers: the distinct points of the offset
	// lattice.
	N int64
	// offsets is the base-offset lattice, dimensions ordered by
	// decreasing stride; points lists its distinct offsets when it
	// overlaps itself, where the count has no closed form, and is nil
	// when the dimensions nest.
	offsets LMAD
	points  []int64
}

// PlanRuns computes the plan of one descriptor at one granularity in
// unenumerated form. Callers restrict the parallel dimension to the
// processor's partition first (postpass.RankPlan).
func PlanRuns(l LMAD, g Grain) Runs {
	if len(l.Dims) == 0 {
		return Runs{offsets: New(l.Array, l.Offset), Elems: 1, Stride: 1, N: 1}
	}
	switch g {
	case Fine, Middle:
		offsets, mapping := Split(l)
		r := Runs{offsets: offsets, Elems: mapping.Trips(), Stride: mapping.Stride}
		if g == Middle || mapping.Stride == 1 {
			// Approximate region: dense run covering the span.
			r.Elems, r.Stride = mapping.Span+1, 1
		}
		dims := r.offsets.Dims
		if len(dims) > 1 {
			sort.SliceStable(dims, func(i, j int) bool { return dims[i].Stride > dims[j].Stride })
		}
		// The dimensions nest when each stride steps past everything the
		// smaller ones span: every index tuple is then its own address
		// and the point count is the lattice size.
		nested, below := true, int64(0)
		for i := len(dims) - 1; i >= 0; i-- {
			if dims[i].Stride <= below {
				nested = false
			}
			below += dims[i].Span
		}
		if nested {
			r.N = r.offsets.Count()
		} else {
			r.points = r.offsets.Enumerate(planLimit)
			r.N = int64(len(r.points))
		}
		return r
	case Coarse:
		// Figure 9(d): "one big approximate region ... transfered to
		// each remote processor" — a single contiguous transfer
		// covering the descriptor's bounding interval, the
		// per-processor box.
		return Runs{offsets: New(l.Array, l.Offset), Elems: l.High() - l.Low() + 1, Stride: 1, N: 1}
	default:
		panic(fmt.Sprintf("lmad: unknown grain %v", g))
	}
}

// Shape returns the transfer every run shares, at offset zero.
func (r Runs) Shape() Transfer { return Transfer{Elems: r.Elems, Stride: r.Stride} }

// Each calls fn with every transfer's base offset in ascending order.
// The zero Runs has no transfers.
func (r Runs) Each(fn func(off int64)) {
	if r.N == 0 {
		return
	}
	if r.points != nil {
		for _, off := range r.points {
			fn(off)
		}
		return
	}
	eachPoint(r.offsets.Offset, r.offsets.Dims, fn)
}

// eachPoint walks a nested lattice whose dimensions are ordered by
// decreasing stride, which visits the points in ascending order.
func eachPoint(base int64, dims []Dim, fn func(int64)) {
	if len(dims) == 0 {
		fn(base)
		return
	}
	d := dims[0]
	for k := int64(0); k <= d.Span; k += d.Stride {
		eachPoint(base+k, dims[1:], fn)
	}
}

// Transfers materialises the plan: one transfer per offset, ascending.
func (r Runs) Transfers() []Transfer {
	if r.N > planLimit {
		panic(fmt.Sprintf("lmad: materialising %d transfers exceeds limit %d", r.N, planLimit))
	}
	out := make([]Transfer, 0, r.N)
	shape := r.Shape()
	r.Each(func(off int64) {
		shape.Offset = off
		out = append(out, shape)
	})
	return out
}

// Plan computes the §5.6 communication plan for one descriptor at one
// granularity, with parallelDim the index (into l.Dims) of the
// parallelized loop's dimension, or -1 when the descriptor is invariant
// in the parallel loop (replicated data). The returned transfers
// enumerate the offset lattice; each transfer moves the mapping region.
// It is the materialisation of PlanRuns.
func Plan(l LMAD, parallelDim int, g Grain) []Transfer {
	return PlanRuns(l, g).Transfers()
}

// MergeContiguous merges overlapping or adjacent stride-1 transfers in
// a plan, returning a minimal sorted list. Strided transfers pass
// through unmerged. The §5.6 coarse grain applies this across all of a
// processor's transfers for one array, collapsing them into the "one
// big approximate region" of Figure 9(d).
func MergeContiguous(plan []Transfer) []Transfer {
	var dense, strided []Transfer
	for _, t := range plan {
		if t.Stride == 1 {
			dense = append(dense, t)
		} else {
			strided = append(strided, t)
		}
	}
	sort.Slice(dense, func(i, j int) bool { return dense[i].Offset < dense[j].Offset })
	var out []Transfer
	for _, t := range dense {
		if n := len(out); n > 0 {
			last := &out[n-1]
			if t.Offset <= last.Offset+last.Elems {
				end := t.Offset + t.Elems
				if lastEnd := last.Offset + last.Elems; end < lastEnd {
					end = lastEnd
				}
				last.Elems = end - last.Offset
				continue
			}
		}
		out = append(out, t)
	}
	return append(out, strided...)
}

// MarkPacked applies the coalescing decision to a plan in place: every
// strided transfer of at least threshold elements is rewritten to the
// packed path. threshold <= 0 means coalescing is off and the plan is
// returned unchanged. Only the transport path changes — offsets,
// element counts and strides are untouched, so the packed plan moves
// byte-identical data.
func MarkPacked(plan []Transfer, threshold int64) []Transfer {
	if threshold <= 0 {
		return plan
	}
	for i := range plan {
		if plan[i].Stride > 1 && plan[i].Elems >= threshold {
			plan[i].Packed = true
		}
	}
	return plan
}

// MarkRendezvous applies the compiler's protocol decision to a plan in
// place: every contiguous (stride-1) transfer of at least threshold
// elements is stamped rendezvous, every smaller contiguous one eager.
// threshold <= 0 means the fabric has no protocol switch and the plan
// is returned unchanged (stamps stay ProtoAuto). Strided transfers are
// never stamped — they ride the strided/packed path, not the
// protocol-switched contiguous one. Like MarkPacked, only the
// transport path changes; the stamped plan moves byte-identical data.
func MarkRendezvous(plan []Transfer, threshold int64) []Transfer {
	if threshold <= 0 {
		return plan
	}
	for i := range plan {
		if plan[i].Stride != 1 {
			continue
		}
		if plan[i].Elems >= threshold {
			plan[i].Proto = ProtoRndv
		} else {
			plan[i].Proto = ProtoEager
		}
	}
	return plan
}

// PlanStats summarizes a communication plan.
type PlanStats struct {
	Messages      int
	StridedMsgs   int
	PackedMsgs    int
	Elements      int64 // total elements on the wire
	ExactElements int64 // elements actually required
}

// Stats computes message/element counts for a plan against the exact
// element count of the descriptor.
func Stats(l LMAD, plan []Transfer) PlanStats {
	st := PlanStats{Messages: len(plan)}
	for _, t := range plan {
		st.Elements += t.Elems
		if t.Stride > 1 {
			st.StridedMsgs++
		}
		if t.Packed {
			st.PackedMsgs++
		}
	}
	st.ExactElements = l.Count()
	return st
}

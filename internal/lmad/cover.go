package lmad

import (
	"cmp"
	"slices"
)

// Span is the half-open run of element offsets [Lo, Hi).
type Span struct{ Lo, Hi int64 }

// Cover returns the elements a plan's transfers move, each once: their
// union as sorted, disjoint, non-adjacent spans. A plan moves redundant
// bytes on purpose (the middle and coarse grains' approximate regions
// overlap), and the runtime charges every transfer; its data need only
// land once, span by span.
//
// A contiguous transfer is one span. Strided transfers of one shape at
// consecutive offsets form a band — Elems runs, Stride apart, each as
// wide as the band's range of offsets — so a fine-grain plan's rows
// become a few wide spans without visiting an element. The cost grows with the
// number of spans built, not with the elements they hold.
func Cover(plan []Transfer) []Span {
	var spans []Span
	var strided []Transfer
	for _, t := range plan {
		switch {
		case t.Elems <= 0:
		case t.Stride == 1 || t.Elems == 1:
			spans = append(spans, Span{t.Offset, t.Offset + t.Elems})
		default:
			strided = append(strided, t)
		}
	}
	slices.SortFunc(strided, func(a, b Transfer) int {
		return cmp.Or(cmp.Compare(a.Stride, b.Stride), cmp.Compare(a.Elems, b.Elems), cmp.Compare(a.Offset, b.Offset))
	})
	for i := 0; i < len(strided); {
		t := strided[i]
		// Offsets t.Offset .. t.Offset+w-1 are all present.
		w := int64(1)
		for i++; i < len(strided); i++ {
			u := strided[i]
			if u.Stride != t.Stride || u.Elems != t.Elems || u.Offset > t.Offset+w {
				break
			}
			w = max(w, u.Offset-t.Offset+1)
		}
		if w >= t.Stride {
			spans = append(spans, Span{t.Offset, t.Offset + (t.Elems-1)*t.Stride + w})
			continue
		}
		for k := int64(0); k < t.Elems; k++ {
			lo := t.Offset + k*t.Stride
			spans = append(spans, Span{lo, lo + w})
		}
	}
	slices.SortFunc(spans, func(a, b Span) int { return cmp.Compare(a.Lo, b.Lo) })
	out := spans[:0]
	for _, s := range spans {
		if n := len(out); n > 0 && s.Lo <= out[n-1].Hi {
			out[n-1].Hi = max(out[n-1].Hi, s.Hi)
			continue
		}
		out = append(out, s)
	}
	return out
}

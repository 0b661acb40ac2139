// Package analysis implements the Polaris front end's parallelism
// detection (the paper's §3): building LMADs and summary sets from the
// AST, the Access Region Test for loop-carried dependences, induction
// variable substitution, reduction recognition, privatization, and
// subroutine inlining. Its output is annotations on the AST (parallel
// flags, schedules, reductions, private lists) plus per-loop summary
// sets consumed by the MPI-2 postpass.
package analysis

import (
	"fmt"

	"vbuscluster/internal/f77"
)

// Affine is a linear form over loop index variables:
// Const + Σ t.Coeff·t.Var over Terms, at most one term per variable.
// Forms share their Terms: add and scale build new slices and never
// write to an operand's.
type Affine struct {
	Const int64
	Terms []Term
}

// Term is one variable term of an Affine form.
type Term struct {
	Var   *f77.Symbol
	Coeff int64
}

// Coeff returns the coefficient of v (0 if absent).
func (a Affine) Coeff(v *f77.Symbol) int64 {
	for _, t := range a.Terms {
		if t.Var == v {
			return t.Coeff
		}
	}
	return 0
}

// IsConst reports whether the form has no variable terms.
func (a Affine) IsConst() bool {
	for _, t := range a.Terms {
		if t.Coeff != 0 {
			return false
		}
	}
	return true
}

func (a Affine) add(b Affine, sign int64) Affine {
	out := Affine{Const: a.Const + sign*b.Const, Terms: a.Terms}
	if len(b.Terms) > 0 {
		out.Terms = append(make([]Term, 0, len(a.Terms)+len(b.Terms)), a.Terms...)
		out.addTerms(b.Terms, sign)
	}
	return out
}

func (a Affine) scale(k int64) Affine {
	out := Affine{Const: a.Const * k}
	out.addTerms(a.Terms, k)
	return out
}

// addTerms adds k·terms to a's own Terms, which it must not share.
func (a *Affine) addTerms(terms []Term, k int64) {
next:
	for _, t := range terms {
		for i := range a.Terms {
			if a.Terms[i].Var == t.Var {
				a.Terms[i].Coeff += k * t.Coeff
				continue next
			}
		}
		a.Terms = append(a.Terms, Term{t.Var, k * t.Coeff})
	}
}

// ExtractAffine decomposes e into a linear form over the variables of
// loops (the enclosing loop indices). Other symbols must be
// PARAMETER constants; anything else (products of variables, calls,
// real arithmetic) fails with ok=false — the conservative answer that
// makes the caller treat the access as unanalyzable.
func ExtractAffine(e f77.Expr, loops []LoopCtx) (Affine, bool) {
	switch x := e.(type) {
	case *f77.IntLit:
		return Affine{Const: x.Val}, true
	case *f77.VarExpr:
		if x.Sym.IsConst {
			if x.Sym.Type != f77.TInteger {
				// A real PARAMETER in a subscript would be bizarre;
				// accept exact integers only.
				if x.Sym.Const != float64(int64(x.Sym.Const)) {
					return Affine{}, false
				}
			}
			return Affine{Const: int64(x.Sym.Const)}, true
		}
		if isLoopVar(x.Sym, loops) {
			return Affine{Terms: []Term{{x.Sym, 1}}}, true
		}
		return Affine{}, false
	case *f77.Un:
		sub, ok := ExtractAffine(x.X, loops)
		if !ok {
			return Affine{}, false
		}
		switch x.Op {
		case f77.OpNeg:
			return sub.scale(-1), true
		case f77.OpPlus:
			return sub, true
		}
		return Affine{}, false
	case *f77.Bin:
		l, lok := ExtractAffine(x.L, loops)
		r, rok := ExtractAffine(x.R, loops)
		switch x.Op {
		case f77.OpAdd:
			if lok && rok {
				return l.add(r, 1), true
			}
		case f77.OpSub:
			if lok && rok {
				return l.add(r, -1), true
			}
		case f77.OpMul:
			if lok && rok {
				if l.IsConst() {
					return r.scale(l.Const), true
				}
				if r.IsConst() {
					return l.scale(r.Const), true
				}
			}
		case f77.OpDiv:
			// Integer division is affine only for exact constant/constant.
			if lok && rok && l.IsConst() && r.IsConst() && r.Const != 0 && l.Const%r.Const == 0 {
				return Affine{Const: l.Const / r.Const}, true
			}
		case f77.OpPow:
			if lok && rok && l.IsConst() && r.IsConst() && r.Const >= 0 {
				v := int64(1)
				for i := int64(0); i < r.Const; i++ {
					v *= l.Const
				}
				return Affine{Const: v}, true
			}
		}
		return Affine{}, false
	default:
		return Affine{}, false
	}
}

// ArrayLayout is the constant column-major layout of an array: the
// element offset of A(s1..sk) is Σ (si - Low_i)·Mult_i.
type ArrayLayout struct {
	Sym  *f77.Symbol
	Lows []int64
	Mult []int64
	// Size is the total element count; 0 when the last dimension is
	// assumed-size.
	Size int64
}

// LayoutOf computes the layout; it fails when any non-final bound does
// not constant-fold.
func LayoutOf(sym *f77.Symbol) (ArrayLayout, error) {
	lay := ArrayLayout{Sym: sym, Lows: make([]int64, 0, len(sym.Dims)), Mult: make([]int64, 0, len(sym.Dims))}
	mult := int64(1)
	for i, d := range sym.Dims {
		low := int64(1)
		if d.Low != nil {
			v, ok := f77.ConstFold(d.Low)
			if !ok {
				return lay, fmt.Errorf("analysis: %s dimension %d lower bound is not constant", sym.Name, i+1)
			}
			low = int64(v)
		}
		lay.Lows = append(lay.Lows, low)
		lay.Mult = append(lay.Mult, mult)
		if d.High == nil {
			if i != len(sym.Dims)-1 {
				return lay, fmt.Errorf("analysis: %s has a non-final assumed dimension", sym.Name)
			}
			lay.Size = 0
			return lay, nil
		}
		hv, ok := f77.ConstFold(d.High)
		if !ok {
			return lay, fmt.Errorf("analysis: %s dimension %d upper bound is not constant", sym.Name, i+1)
		}
		extent := int64(hv) - low + 1
		if extent <= 0 {
			return lay, fmt.Errorf("analysis: %s dimension %d has non-positive extent %d", sym.Name, i+1, extent)
		}
		mult *= extent
	}
	lay.Size = mult
	return lay, nil
}

// Linearize combines per-dimension affine subscripts into a single
// affine element offset using the layout.
func (lay ArrayLayout) Linearize(subs []Affine) Affine {
	var out Affine
	for i, s := range subs {
		out.Const += (s.Const - lay.Lows[i]) * lay.Mult[i]
		out.addTerms(s.Terms, lay.Mult[i])
	}
	return out
}

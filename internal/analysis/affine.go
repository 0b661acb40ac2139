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

// addTerm adds c·v to a's own Terms.
func (a *Affine) addTerm(v *f77.Symbol, c int64) {
	for i := range a.Terms {
		if a.Terms[i].Var == v {
			a.Terms[i].Coeff += c
			return
		}
	}
	a.Terms = append(a.Terms, Term{v, c})
}

// ExtractAffine decomposes e into a linear form over the variables of
// loops (the enclosing loop indices). Other symbols must be
// PARAMETER constants; anything else (products of variables, calls,
// real arithmetic) fails with ok=false — the conservative answer that
// makes the caller treat the access as unanalyzable.
func ExtractAffine(e f77.Expr, loops []LoopCtx) (Affine, bool) {
	var a Affine
	if !a.addExpr(e, 1, loops) {
		return Affine{}, false
	}
	return a, true
}

// addExpr adds k·e into a, under ExtractAffine's rules. Sums,
// differences, negation and a constant factor fold straight into a;
// only a product's, quotient's or power's operands are extracted
// apart, since whether they are constant decides the rule. On failure
// a holds a partial sum.
func (a *Affine) addExpr(e f77.Expr, k int64, loops []LoopCtx) bool {
	switch x := e.(type) {
	case *f77.IntLit:
		a.Const += k * x.Val
		return true
	case *f77.VarExpr:
		if x.Sym.IsConst {
			if x.Sym.Type != f77.TInteger {
				// A real PARAMETER in a subscript would be bizarre;
				// accept exact integers only.
				if x.Sym.Const != float64(int64(x.Sym.Const)) {
					return false
				}
			}
			a.Const += k * int64(x.Sym.Const)
			return true
		}
		if isLoopVar(x.Sym, loops) {
			a.addTerm(x.Sym, k)
			return true
		}
		return false
	case *f77.Un:
		switch x.Op {
		case f77.OpNeg:
			return a.addExpr(x.X, -k, loops)
		case f77.OpPlus:
			return a.addExpr(x.X, k, loops)
		}
		return false
	case *f77.Bin:
		switch x.Op {
		case f77.OpAdd:
			return a.addExpr(x.L, k, loops) && a.addExpr(x.R, k, loops)
		case f77.OpSub:
			return a.addExpr(x.L, k, loops) && a.addExpr(x.R, -k, loops)
		}
		var l, r Affine
		if !l.addExpr(x.L, 1, loops) {
			return false
		}
		if x.Op == f77.OpMul && l.IsConst() {
			return a.addExpr(x.R, k*l.Const, loops)
		}
		if !r.addExpr(x.R, 1, loops) || !r.IsConst() {
			return false
		}
		if x.Op == f77.OpMul {
			a.Const += k * l.Const * r.Const
			for _, t := range l.Terms {
				a.addTerm(t.Var, k*r.Const*t.Coeff)
			}
			return true
		}
		if !l.IsConst() {
			return false
		}
		switch x.Op {
		case f77.OpDiv:
			// Integer division is affine only for exact constant/constant.
			if r.Const != 0 && l.Const%r.Const == 0 {
				a.Const += k * (l.Const / r.Const)
				return true
			}
		case f77.OpPow:
			if r.Const >= 0 {
				v := int64(1)
				for i := int64(0); i < r.Const; i++ {
					v *= l.Const
				}
				a.Const += k * v
				return true
			}
		}
		return false
	default:
		return false
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
	size, err := walkDims(sym, func(_ int, low, mult int64) {
		lay.Lows = append(lay.Lows, low)
		lay.Mult = append(lay.Mult, mult)
	})
	lay.Size = size
	return lay, err
}

// walkDims folds sym's bounds, calling f with each dimension's lower
// bound and multiplier in order until a bound fails to fold. It returns
// the element count: 0 when the last dimension is assumed-size.
func walkDims(sym *f77.Symbol, f func(i int, low, mult int64)) (int64, error) {
	mult := int64(1)
	for i, d := range sym.Dims {
		low := int64(1)
		if d.Low != nil {
			v, ok := f77.ConstFold(d.Low)
			if !ok {
				return 0, fmt.Errorf("analysis: %s dimension %d lower bound is not constant", sym.Name, i+1)
			}
			low = int64(v)
		}
		f(i, low, mult)
		if d.High == nil {
			if i != len(sym.Dims)-1 {
				return 0, fmt.Errorf("analysis: %s has a non-final assumed dimension", sym.Name)
			}
			return 0, nil
		}
		hv, ok := f77.ConstFold(d.High)
		if !ok {
			return 0, fmt.Errorf("analysis: %s dimension %d upper bound is not constant", sym.Name, i+1)
		}
		extent := int64(hv) - low + 1
		if extent <= 0 {
			return 0, fmt.Errorf("analysis: %s dimension %d has non-positive extent %d", sym.Name, i+1, extent)
		}
		mult *= extent
	}
	return mult, nil
}

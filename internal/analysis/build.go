package analysis

import (
	"fmt"

	"vbuscluster/internal/f77"
	"vbuscluster/internal/lmad"
)

// LoopCtx is one enclosing loop with resolved (possibly conservative)
// constant bounds.
type LoopCtx struct {
	Loop *f77.DoLoop
	Var  *f77.Symbol
	// From/To/Step after constant folding. For bounds that depend on
	// outer loop indices (triangular nests) From is the minimum and To
	// the maximum over the outer ranges, and Exact is false; a first
	// value that moves makes the step ±1.
	From, To, Step int64
	Exact          bool
}

// Trips reports the (conservative) trip count, as a DO statement
// counts it: max(0, (To − From + Step) / Step).
func (c LoopCtx) Trips() int64 {
	if c.Step == 0 {
		return 0
	}
	return max((c.To-c.From+c.Step)/c.Step, 0)
}

// resolveLoop computes a LoopCtx given the outer contexts, using
// interval arithmetic over outer loop ranges for triangular bounds. A
// header that does not resolve gives the reason's format.
func resolveLoop(loop *f77.DoLoop, outer []LoopCtx) (LoopCtx, string) {
	ctx := LoopCtx{Loop: loop, Var: loop.Var, Step: 1, Exact: true}
	if loop.Step != nil {
		v, ok := f77.ConstFold(loop.Step)
		if !ok || v == 0 {
			return ctx, "DO %s step does not fold to a nonzero constant"
		}
		ctx.Step = int64(v)
	}
	lo, hiLo, exactF, errF := exprRange(loop.From, outer)
	lo2, hi, exactT, errT := exprRange(loop.To, outer)
	if errF != nil || errT != nil {
		return ctx, "DO %s bounds are not affine in the enclosing indices"
	}
	if ctx.Step > 0 {
		ctx.From, ctx.To = lo, hi
	} else {
		ctx.From, ctx.To = hiLo, lo2
	}
	ctx.Exact = exactF && exactT
	if !exactF {
		// The first value moves with the outer indices, and so does the
		// lattice a larger step walks: only a unit step covers them all.
		ctx.Step /= max(ctx.Step, -ctx.Step)
	}
	return ctx, ""
}

// exprRange evaluates an integer expression to a [min,max] interval
// over the ranges of the outer loop variables. exact is true when the
// expression is a constant.
func exprRange(e f77.Expr, outer []LoopCtx) (min, max int64, exact bool, err error) {
	if v, ok := f77.ConstFold(e); ok {
		return int64(v), int64(v), true, nil
	}
	aff, ok := ExtractAffine(e, outer)
	if !ok {
		return 0, 0, false, fmt.Errorf("analysis: bound expression is not affine in loop indices")
	}
	min, max = aff.Const, aff.Const
	for _, c := range outer {
		co := aff.Coeff(c.Var)
		if co == 0 {
			continue
		}
		lo, hi := c.From, c.To
		if c.Step < 0 {
			lo, hi = hi, lo
		}
		if co > 0 {
			min += co * lo
			max += co * hi
		} else {
			min += co * hi
			max += co * lo
		}
	}
	return min, max, false, nil
}

// Access is one analyzed array (or scalar) reference, expanded over a
// set of loops.
type Access struct {
	Sym *f77.Symbol
	L   lmad.LMAD
	// DimLoop[i] is the loop variable that generated L.Dims[i] (same
	// order). Dimensions dropped during normalization are absent here
	// too.
	DimLoop []*f77.Symbol
	// konst and terms are the linearized subscript's constant and
	// loop-variable terms (element units); Coeff reads the terms.
	konst int64
	terms []Term
}

// Coeff returns the coefficient of loop variable v in the linearized
// subscript, in elements: 0 when v does not appear.
func (a Access) Coeff(v *f77.Symbol) int64 { return Affine{Terms: a.terms}.Coeff(v) }

// DimOf returns the index of the dimension generated by loop variable
// v, or -1 if the access is invariant in v.
func (a Access) DimOf(v *f77.Symbol) int {
	for i, lv := range a.DimLoop {
		if lv == v {
			return i
		}
	}
	return -1
}

// BuildAccess analyzes one reference (sym with subscripts subs) under
// the enclosing loops, producing its LMAD with one dimension per loop
// whose index appears. ok=false means the access is not affine-analyzable.
func BuildAccess(sym *f77.Symbol, subs []f77.Expr, loops []LoopCtx) (Access, bool) {
	acc := Access{Sym: sym}
	if len(subs) == 0 {
		// Scalar (rank-0) access.
		acc.L = lmad.New(sym.Name, 0)
		return acc, true
	}
	// Fold each subscript straight into the linearised offset, in
	// elements: subscript i adds (s_i - low_i)·mult_i.
	lin, ok := Affine{Terms: make([]Term, 0, len(loops))}, true
	if _, err := walkDims(sym, func(i int, low, mult int64) {
		if ok && i < len(subs) {
			ok = lin.addExpr(subs[i], mult, loops)
			lin.Const -= low * mult
		}
	}); err != nil || !ok {
		return acc, false
	}

	acc.konst, acc.terms = lin.Const, lin.Terms
	acc.L = acc.at(loops, 0, &acc.DimLoop)
	return acc, true
}

// at returns the access's descriptor with loops[:pin] at their first
// values and every later loop expanded over its range, dimensions
// outermost-first (the contexts arrive outermost-first). When dimLoop
// is not nil, it receives each dimension's loop variable.
func (a *Access) at(loops []LoopCtx, pin int, dimLoop *[]*f77.Symbol) lmad.LMAD {
	l := lmad.New(a.Sym.Name, a.konst)
	for i, c := range loops {
		co := a.Coeff(c.Var)
		if co == 0 {
			continue
		}
		l.Offset += co * c.From
		if i < pin {
			continue
		}
		if l.Dims == nil {
			l.Dims = make([]lmad.Dim, 0, len(loops)-i)
		}
		stride := co * c.Step
		before := l.Rank()
		l.AddDim(stride, stride*(max(c.Trips(), 1)-1))
		if dimLoop != nil && l.Rank() > before {
			if *dimLoop == nil {
				*dimLoop = make([]*f77.Symbol, 0, len(loops)-i)
			}
			*dimLoop = append(*dimLoop, c.Var)
		}
	}
	return l
}

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
	// the maximum over the outer ranges, and Exact is false.
	From, To, Step int64
	Exact          bool
}

// Trips reports the (conservative) trip count.
func (c LoopCtx) Trips() int64 {
	if c.Step == 0 {
		return 0
	}
	n := (c.To-c.From)/c.Step + 1
	if n < 0 {
		return 0
	}
	return n
}

// ResolveLoop computes a LoopCtx given the outer contexts, using
// interval arithmetic over outer loop ranges for triangular bounds.
func ResolveLoop(loop *f77.DoLoop, outer []LoopCtx) (LoopCtx, error) {
	ctx := LoopCtx{Loop: loop, Var: loop.Var, Step: 1, Exact: true}
	if loop.Step != nil {
		v, ok := f77.ConstFold(loop.Step)
		if !ok || v == 0 {
			return ctx, fmt.Errorf("analysis: loop %s step does not fold to a nonzero constant", loop.Var.Name)
		}
		ctx.Step = int64(v)
	}
	lo, hiLo, exactF, err := exprRange(loop.From, outer)
	if err != nil {
		return ctx, err
	}
	lo2, hi, exactT, err := exprRange(loop.To, outer)
	if err != nil {
		return ctx, err
	}
	if ctx.Step > 0 {
		ctx.From, ctx.To = lo, hi
	} else {
		ctx.From, ctx.To = hiLo, lo2
	}
	ctx.Exact = exactF && exactT
	return ctx, nil
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
	// terms are the linearized subscript's loop-variable terms (element
	// units); Coeff reads them.
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

	// Base offset: every loop variable at its first value. Dimensions
	// outermost-first (the contexts arrive outermost-first).
	acc.L, acc.terms = lmad.New(sym.Name, lin.Const), lin.Terms
	for i, c := range loops {
		co := lin.Coeff(c.Var)
		if co == 0 {
			continue
		}
		if acc.DimLoop == nil {
			acc.L.Dims = make([]lmad.Dim, 0, len(loops)-i)
			acc.DimLoop = make([]*f77.Symbol, 0, len(loops)-i)
		}
		acc.L.Offset += co * c.From
		stride := co * c.Step
		before := acc.L.Rank()
		acc.L.AddDim(stride, stride*(max(c.Trips(), 1)-1))
		if acc.L.Rank() > before {
			acc.DimLoop = append(acc.DimLoop, c.Var)
		}
	}
	return acc, true
}

// RegionAccesses collects every classified access in stmts (expanded
// over the given enclosing loops plus any loops inside stmts).
// Classification follows §4.2 at statement granularity: statement
// writes are WriteFirst unless the same statement reads an overlapping
// region of the same array (then ReadWrite); reads are ReadOnly.
// skip contains symbols to exclude (loop indices, privatized scalars,
// reduction variables). ok=false marks the region unanalyzable (a CALL,
// GOTO, PRINT or non-affine access inside).
type RegionInfo struct {
	Accesses []classified
	OK       bool
	// WhyNot explains the first reason analysis gave up.
	WhyNot string
}

type classified struct {
	acc   Access
	typ   lmad.AccType
	write bool
}

// Region analyzes a statement list under enclosing loops. It builds
// the accesses only; Summary derives the summary set from them.
func Region(stmts []f77.Stmt, loops []LoopCtx, skip map[*f77.Symbol]bool) RegionInfo {
	ri := RegionInfo{OK: true}
	ri.walk(stmts, loops, skip)
	return ri
}

// Summary returns the region's summary set (Figure 5): every access's
// descriptor under its classification, normalized so that conflicting
// ReadOnly/WriteFirst regions are promoted to ReadWrite.
func (ri *RegionInfo) Summary() *lmad.Summary {
	s := lmad.NewSummary()
	for _, c := range ri.Accesses {
		s.Add(c.typ, c.acc.L)
	}
	s.Merge(lmad.NewSummary()) // normalize
	return s
}

// AccessesOf returns the region's accesses whose effective
// classification in sum, the region's Summary, equals t.
func (ri *RegionInfo) AccessesOf(sum *lmad.Summary, t lmad.AccType) []Access {
	var out []Access
	for _, c := range ri.Accesses {
		eff := c.typ
		if eff != lmad.ReadWrite {
			for _, rw := range sum.Sets[lmad.ReadWrite] {
				if rw.Equal(c.acc.L) {
					eff = lmad.ReadWrite
					break
				}
			}
		}
		if eff == t {
			out = append(out, c.acc)
		}
	}
	return out
}

func (ri *RegionInfo) fail(why string) {
	if ri.OK {
		ri.OK = false
		ri.WhyNot = why
	}
}

func (ri *RegionInfo) walk(stmts []f77.Stmt, loops []LoopCtx, skip map[*f77.Symbol]bool) {
	for _, s := range stmts {
		switch x := s.(type) {
		case *f77.Assign:
			ri.assign(x, loops, skip)
		case *f77.DoLoop:
			ctx, err := ResolveLoop(x, loops)
			if err != nil {
				ri.fail(err.Error())
				continue
			}
			inner := append(append([]LoopCtx(nil), loops...), ctx)
			innerSkip := map[*f77.Symbol]bool{x.Var: true}
			for k := range skip {
				innerSkip[k] = true
			}
			ri.walk(x.Body, inner, innerSkip)
		case *f77.IfBlock:
			// Conservative: treat all arms as executed; condition reads.
			for _, c := range x.Conds {
				ri.reads(c, loops, skip)
			}
			for _, blk := range x.Blocks {
				ri.walk(blk, loops, skip)
			}
			ri.walk(x.Else, loops, skip)
		case *f77.ContinueStmt:
			// no accesses
		case *f77.CallStmt:
			ri.fail(fmt.Sprintf("CALL %s inside region (not inlined)", x.Name))
		case *f77.Goto:
			ri.fail("GOTO inside region")
		case *f77.PrintStmt:
			ri.fail("I/O inside region")
		case *f77.ReturnStmt, *f77.StopStmt:
			ri.fail("control transfer inside region")
		default:
			ri.fail(fmt.Sprintf("unhandled statement %T", s))
		}
	}
}

func (ri *RegionInfo) add(acc Access, typ lmad.AccType, write bool) {
	ri.Accesses = append(ri.Accesses, classified{acc: acc, typ: typ, write: write})
}

func (ri *RegionInfo) reads(e f77.Expr, loops []LoopCtx, skip map[*f77.Symbol]bool) {
	f77.WalkExpr(e, func(sub f77.Expr) {
		switch v := sub.(type) {
		case *f77.VarExpr:
			if skip[v.Sym] || v.Sym.IsConst || isLoopVar(v.Sym, loops) {
				return
			}
			acc, _ := BuildAccess(v.Sym, nil, loops)
			ri.add(acc, lmad.ReadOnly, false)
		case *f77.ArrayExpr:
			if skip[v.Sym] {
				return
			}
			acc, ok := BuildAccess(v.Sym, v.Subs, loops)
			if !ok {
				ri.fail(fmt.Sprintf("non-affine access to %s", v.Sym.Name))
				return
			}
			ri.add(acc, lmad.ReadOnly, false)
		case *f77.CallExpr:
			if !v.Intrinsic {
				ri.fail(fmt.Sprintf("user function %s inside region", v.Name))
			}
		}
	})
}

func isLoopVar(s *f77.Symbol, loops []LoopCtx) bool {
	for _, c := range loops {
		if c.Var == s {
			return true
		}
	}
	return false
}

func (ri *RegionInfo) assign(a *f77.Assign, loops []LoopCtx, skip map[*f77.Symbol]bool) {
	// Subscript expressions of the LHS are reads.
	for _, sub := range a.LHS.Subs {
		ri.reads(sub, loops, skip)
	}
	rhs := len(ri.Accesses)
	ri.reads(a.RHS, loops, skip)
	if skip[a.LHS.Sym] {
		return
	}
	wacc, ok := BuildAccess(a.LHS.Sym, a.LHS.Subs, loops)
	if !ok {
		ri.fail(fmt.Sprintf("non-affine write to %s", a.LHS.Sym.Name))
		return
	}
	// Same-statement read of the same region → ReadWrite (e.g. the
	// C(I,J) = C(I,J) + ... pattern): reads just appended every
	// analysable RHS reference to the array. A bare mention of the
	// symbol counts whatever its bounds.
	typ := lmad.WriteFirst
	for _, c := range ri.Accesses[rhs:] {
		if c.acc.Sym == a.LHS.Sym && lmad.BoundsOverlap(c.acc.L, wacc.L) {
			typ = lmad.ReadWrite
		}
	}
	f77.WalkExpr(a.RHS, func(sub f77.Expr) {
		if v, ok := sub.(*f77.VarExpr); ok && v.Sym == a.LHS.Sym {
			typ = lmad.ReadWrite
		}
	})
	ri.add(wacc, typ, true)
}

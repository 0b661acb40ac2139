package analysis

import (
	"fmt"

	"vbuscluster/internal/f77"
	"vbuscluster/internal/lmad"
)

// maxShiftChecks bounds the iteration distances the Access Region Test
// considers per pair. Loops whose regions could meet at more distances
// than this are treated conservatively (serial).
const maxShiftChecks = 1 << 14

// enumLimit bounds exact enumeration inside overlap tests.
const enumLimit = 1 << 16

// DetectParallel runs the front end's parallelism detection over every
// loop in the unit (§3): reduction recognition, privatization, then the
// Access Region Test on the per-iteration summary sets. Loops proven
// independent are marked Parallel, with BLOCK or CYCLIC schedules per
// §5.3. Loops already marked by a !$PAR directive keep the mark.
func DetectParallel(u *f77.Unit) {
	var visit func(stmts []f77.Stmt, outer []LoopCtx)
	visit = func(stmts []f77.Stmt, outer []LoopCtx) {
		for _, s := range stmts {
			switch x := s.(type) {
			case *f77.DoLoop:
				ctx, err := ResolveLoop(x, outer)
				if err == nil {
					analyzeLoop(u, x, ctx, outer)
					visit(x.Body, append(append([]LoopCtx(nil), outer...), ctx))
				} else {
					visit(x.Body, outer)
				}
			case *f77.IfBlock:
				for _, blk := range x.Blocks {
					visit(blk, outer)
				}
				visit(x.Else, outer)
			}
		}
	}
	visit(u.Body, nil)
}

func analyzeLoop(u *f77.Unit, loop *f77.DoLoop, ctx LoopCtx, outer []LoopCtx) {
	RecognizeReductions(loop)
	Privatize(loop)
	// Privatized scalars must be dead after the loop: a read elsewhere
	// in the unit needs the sequentially-last value, which privatization
	// would lose.
	kept := loop.Private[:0]
	for _, p := range loop.Private {
		if !readOutsideLoop(u, loop, p) {
			kept = append(kept, p)
		}
	}
	loop.Private = kept
	loop.Triangular = isTriangular(loop)
	if loop.Triangular {
		loop.Schedule = f77.SchedCyclic
	} else {
		loop.Schedule = f77.SchedBlock
	}
	if loop.Parallel {
		return // explicit directive wins
	}
	loop.Parallel = IndependentIterations(loop, ctx, outer)
}

// readOutsideLoop reports whether sym is read anywhere in the unit
// outside the given loop's subtree.
func readOutsideLoop(u *f77.Unit, loop *f77.DoLoop, sym *f77.Symbol) bool {
	found := false
	var visit func(stmts []f77.Stmt)
	visit = func(stmts []f77.Stmt) {
		for _, s := range stmts {
			if s == f77.Stmt(loop) {
				continue
			}
			f77.StmtExprs(s, func(e f77.Expr) {
				if exprReads(e, sym) {
					found = true
				}
			})
			switch x := s.(type) {
			case *f77.DoLoop:
				visit(x.Body)
			case *f77.IfBlock:
				for _, blk := range x.Blocks {
					visit(blk)
				}
				visit(x.Else)
			}
		}
	}
	visit(u.Body)
	return found
}

// isTriangular reports whether any nested loop bound references this
// loop's index.
func isTriangular(loop *f77.DoLoop) bool {
	tri := false
	f77.WalkStmts(loop.Body, func(s f77.Stmt) bool {
		if inner, ok := s.(*f77.DoLoop); ok {
			check := func(e f77.Expr) {
				f77.WalkExpr(e, func(sub f77.Expr) {
					if v, ok := sub.(*f77.VarExpr); ok && v.Sym == loop.Var {
						tri = true
					}
				})
			}
			check(inner.From)
			check(inner.To)
			check(inner.Step)
		}
		return true
	})
	return tri
}

// IndependentIterations is the Access Region Test (§4, [2]): the loop
// is parallel iff no memory location written in one iteration is
// accessed in a different iteration, after excluding the loop variable,
// recognized reduction variables, privatized scalars, and inner loop
// indices.
func IndependentIterations(loop *f77.DoLoop, ctx LoopCtx, outer []LoopCtx) bool {
	trips := ctx.Trips()
	if trips <= 1 {
		return true
	}
	skip := map[*f77.Symbol]bool{loop.Var: true}
	for _, r := range loop.Reductions {
		skip[r.Sym] = true
	}
	for _, p := range loop.Private {
		skip[p] = true
	}
	// Per-iteration region: outer loop indices and the target index are
	// pinned to single trips, so inner loops expand into dimensions
	// while the target variable contributes only its coefficient (the
	// per-iteration shift). Pinning outer indices shifts every access
	// uniformly, which cannot affect dependences carried by this loop.
	ctxs := make([]LoopCtx, 0, len(outer)+1)
	for _, o := range outer {
		ctxs = append(ctxs, iterCtx(o))
	}
	ctxs = append(ctxs, iterCtx(ctx))
	riFixed := Region(loop.Body, ctxs, skip)
	if !riFixed.OK {
		return false
	}

	// Distinct references only: the test's answer for a pair depends on
	// the two descriptors and their coefficients of the loop variable, so
	// a reference repeated in the body (C(I,J) read and written) is one
	// entry.
	var writes, all []*Access
	for i := range riFixed.Accesses {
		c := &riFixed.Accesses[i]
		all = addDistinct(all, &c.acc, loop.Var)
		if c.write {
			// Scalars written in the loop (not privatized, not
			// reductions) serialize it.
			if !c.acc.Sym.IsArray() {
				return false
			}
			writes = addDistinct(writes, &c.acc, loop.Var)
		}
	}
	for _, w := range writes {
		for _, x := range all {
			if x.Sym != w.Sym {
				continue
			}
			if !crossIterationDisjoint(w, x, loop.Var, ctx) {
				return false
			}
		}
	}
	return true
}

// addDistinct appends acc unless the list already holds the same
// reference as far as the Access Region Test on loop variable v can
// tell: same array, same per-iteration descriptor, same coefficient.
func addDistinct(list []*Access, acc *Access, v *f77.Symbol) []*Access {
	for _, have := range list {
		if have.Sym == acc.Sym && have.Coeff(v) == acc.Coeff(v) && have.L.Equal(acc.L) {
			return list
		}
	}
	return append(list, acc)
}

// iterCtx builds a one-trip context pinning the loop variable to its
// first value, so per-iteration LMADs carry the variable's coefficient
// (Access.Coeff) but no expanded dimension.
func iterCtx(ctx LoopCtx) LoopCtx {
	return LoopCtx{Loop: ctx.Loop, Var: ctx.Var, From: ctx.From, To: ctx.From, Step: ctx.Step, Exact: ctx.Exact}
}

// crossIterationDisjoint checks W(i) ∩ X(j) = ∅ for all i ≠ j by
// shifting X by the per-iteration displacement d·coeff·step.
func crossIterationDisjoint(w, x *Access, v *f77.Symbol, ctx LoopCtx) bool {
	cw, cx := w.Coeff(v), x.Coeff(v)
	trips := ctx.Trips()
	if cw == 0 && cx == 0 {
		// Both invariant in the loop: every iteration touches the same
		// region. A write to it conflicts unless it is the same single
		// element written identically — still a conflict for ART.
		return false
	}
	if cw != cx {
		// Different coefficients: the displacement varies per iteration
		// pair; fall back to whole-expansion overlap (conservative —
		// the expansions include the same-iteration points, so this can
		// only over-report dependence, never miss one).
		wFull := w.L.WithDim(cw*ctx.Step, cw*ctx.Step*(trips-1))
		xFull := x.L.WithDim(cx*ctx.Step, cx*ctx.Step*(trips-1))
		return !lmad.Overlap(wFull, xFull, enumLimit)
	}
	// Equal coefficients: iterations i and i+d are shifted by
	// shift = c·step·d; disjoint iff W ∩ X+shift·d = ∅ for d = 1..trips-1
	// (and the symmetric direction).
	shift := cw * ctx.Step
	if shift < 0 {
		shift = -shift
	}
	// The regions are bounded; once the shift exceeds the span of
	// their union the intervals cannot meet. The span counts the gap
	// between the regions, not only their widths: A(I+2) against A(I)
	// meets at distance 2 although both regions are one element wide.
	extent := max(w.L.High(), x.L.High()) - min(w.L.Low(), x.L.Low())
	maxD := trips - 1
	if lim := extent/shift + 1; lim < maxD {
		maxD = lim
	}
	if maxD > maxShiftChecks {
		return false // conservative for enormous loops
	}
	return !lmad.OverlapShifts(w.L, x.L, shift, maxD, enumLimit)
}

// RecognizeReductions finds scalar reduction statements S = S op expr
// (op in +, *, MAX, MIN) where S is used nowhere else in the loop, and
// records them on the loop.
func RecognizeReductions(loop *f77.DoLoop) {
	loop.Reductions = nil
	// Count scalar uses and candidate statements.
	type cand struct {
		op    string
		count int // reduction statements for this symbol
	}
	cands := map[*f77.Symbol]*cand{}
	uses := map[*f77.Symbol]int{}

	f77.WalkStmts(loop.Body, func(s f77.Stmt) bool {
		f77.StmtExprs(s, func(e f77.Expr) {
			f77.WalkExpr(e, func(sub f77.Expr) {
				if v, ok := sub.(*f77.VarExpr); ok {
					uses[v.Sym]++
				}
			})
		})
		if a, ok := s.(*f77.Assign); ok && len(a.LHS.Subs) == 0 {
			uses[a.LHS.Sym]++
			if op, ok := reductionOp(a); ok {
				c := cands[a.LHS.Sym]
				if c == nil {
					c = &cand{op: op}
					cands[a.LHS.Sym] = c
				} else if c.op != op {
					c.count = -1 << 30 // mixed operators: disqualify
				}
				c.count++
			}
		}
		return true
	})
	for sym, c := range cands {
		if sym == loop.Var || c.count < 1 {
			continue
		}
		// Every use of sym must come from its reduction statements:
		// each contributes exactly 2 uses (LHS + the RHS occurrence).
		if uses[sym] == 2*c.count {
			loop.Reductions = append(loop.Reductions, &f77.Reduction{Sym: sym, Op: c.op})
		}
	}
}

// reductionOp matches S = S + e, S = S * e (either operand order for
// commutative ops), S = e + S, S = MAX(S, e), S = MIN(S, e).
func reductionOp(a *f77.Assign) (string, bool) {
	s := a.LHS.Sym
	isS := func(e f77.Expr) bool {
		v, ok := e.(*f77.VarExpr)
		return ok && v.Sym == s
	}
	mentionsS := func(e f77.Expr) bool {
		found := false
		f77.WalkExpr(e, func(sub f77.Expr) {
			if isS(sub) {
				found = true
			}
		})
		return found
	}
	switch rhs := a.RHS.(type) {
	case *f77.Bin:
		switch rhs.Op {
		case f77.OpAdd:
			if isS(rhs.L) && !mentionsS(rhs.R) {
				return "+", true
			}
			if isS(rhs.R) && !mentionsS(rhs.L) {
				return "+", true
			}
		case f77.OpMul:
			if isS(rhs.L) && !mentionsS(rhs.R) {
				return "*", true
			}
			if isS(rhs.R) && !mentionsS(rhs.L) {
				return "*", true
			}
		case f77.OpSub:
			// S = S - e is a sum reduction of -e.
			if isS(rhs.L) && !mentionsS(rhs.R) {
				return "+", true
			}
		}
	case *f77.CallExpr:
		if (rhs.Name == "MAX" || rhs.Name == "AMAX1" || rhs.Name == "MAX0" ||
			rhs.Name == "MIN" || rhs.Name == "AMIN1" || rhs.Name == "MIN0") && len(rhs.Args) == 2 {
			op := "MAX"
			if rhs.Name[0] == 'M' && rhs.Name[1] == 'I' || rhs.Name == "AMIN1" {
				op = "MIN"
			}
			if isS(rhs.Args[0]) && !mentionsS(rhs.Args[1]) {
				return op, true
			}
			if isS(rhs.Args[1]) && !mentionsS(rhs.Args[0]) {
				return op, true
			}
		}
	}
	return "", false
}

// flowState is the write-first lattice used by Privatize.
type flowState int

const (
	flowNone flowState = iota // not accessed
	flowWF                    // written before any read on every path
	flowRF                    // (possibly) read before written
)

// Privatize marks scalars that are written before read in every
// iteration (WriteFirst in the body): each slave can keep a private
// copy, removing the loop-carried anti/output dependences (§3's
// privatization technique). Inner loop indices are always private.
func Privatize(loop *f77.DoLoop) {
	loop.Private = nil
	// Collect candidate scalars: written somewhere in the body.
	written := map[*f77.Symbol]bool{}
	f77.WalkStmts(loop.Body, func(s f77.Stmt) bool {
		if a, ok := s.(*f77.Assign); ok && len(a.LHS.Subs) == 0 {
			written[a.LHS.Sym] = true
		}
		if d, ok := s.(*f77.DoLoop); ok {
			written[d.Var] = true
		}
		return true
	})
	for sym := range written {
		if sym == loop.Var {
			continue
		}
		if stmtsFlow(loop.Body, sym) == flowWF || isInnerLoopVar(loop.Body, sym) {
			loop.Private = append(loop.Private, sym)
		}
	}
	// Deterministic order for reproducible codegen.
	sortSymbols(loop.Private)
}

func isInnerLoopVar(stmts []f77.Stmt, sym *f77.Symbol) bool {
	found := false
	f77.WalkStmts(stmts, func(s f77.Stmt) bool {
		if d, ok := s.(*f77.DoLoop); ok && d.Var == sym {
			found = true
		}
		return true
	})
	return found
}

func sortSymbols(syms []*f77.Symbol) {
	for i := 1; i < len(syms); i++ {
		for j := i; j > 0 && syms[j].Name < syms[j-1].Name; j-- {
			syms[j], syms[j-1] = syms[j-1], syms[j]
		}
	}
}

// stmtsFlow computes the write-first state of sym across a statement
// sequence.
func stmtsFlow(stmts []f77.Stmt, sym *f77.Symbol) flowState {
	state := flowNone
	for _, s := range stmts {
		if state != flowNone {
			return state
		}
		state = stmtFlow(s, sym)
	}
	return state
}

func exprReads(e f77.Expr, sym *f77.Symbol) bool {
	found := false
	f77.WalkExpr(e, func(sub f77.Expr) {
		if v, ok := sub.(*f77.VarExpr); ok && v.Sym == sym {
			found = true
		}
	})
	return found
}

func stmtFlow(s f77.Stmt, sym *f77.Symbol) flowState {
	switch x := s.(type) {
	case *f77.Assign:
		for _, sub := range x.LHS.Subs {
			if exprReads(sub, sym) {
				return flowRF
			}
		}
		if exprReads(x.RHS, sym) {
			return flowRF
		}
		if len(x.LHS.Subs) == 0 && x.LHS.Sym == sym {
			return flowWF
		}
		return flowNone
	case *f77.DoLoop:
		if exprReads(x.From, sym) || exprReads(x.To, sym) || (x.Step != nil && exprReads(x.Step, sym)) {
			return flowRF
		}
		if x.Var == sym {
			// The DO statement writes the variable before the body runs.
			return flowWF
		}
		inner := stmtsFlow(x.Body, sym)
		if inner == flowWF {
			// Zero-trip loops would skip the write; only trust constant
			// loops with at least one trip.
			if ctx, err := ResolveLoop(x, nil); err == nil && ctx.Exact && ctx.Trips() >= 1 {
				return flowWF
			}
			return flowRF
		}
		return inner
	case *f77.IfBlock:
		for _, c := range x.Conds {
			if exprReads(c, sym) {
				return flowRF
			}
		}
		arms := make([]flowState, 0, len(x.Blocks)+1)
		for _, blk := range x.Blocks {
			arms = append(arms, stmtsFlow(blk, sym))
		}
		arms = append(arms, stmtsFlow(x.Else, sym))
		all := arms[0]
		for _, a := range arms[1:] {
			if a != all {
				// Mixed outcomes across branches: conservative RF if
				// any access happens at all.
				for _, b := range arms {
					if b == flowRF {
						return flowRF
					}
				}
				return flowRF
			}
		}
		return all
	case *f77.CallStmt, *f77.PrintStmt:
		// Conservative: a call or I/O might read anything it mentions.
		reads := false
		f77.StmtExprs(s, func(e f77.Expr) {
			if exprReads(e, sym) {
				reads = true
			}
		})
		if reads {
			return flowRF
		}
		return flowNone
	default:
		return flowNone
	}
}

// Explain returns a human-readable report of the loop's analysis
// annotations (used by cmd/vbcc -explain).
func Explain(loop *f77.DoLoop) string {
	out := fmt.Sprintf("DO %s: parallel=%v schedule=%s", loop.Var.Name, loop.Parallel, loop.Schedule)
	for _, r := range loop.Reductions {
		out += fmt.Sprintf(" reduction(%s %s)", r.Op, r.Sym.Name)
	}
	for _, p := range loop.Private {
		out += fmt.Sprintf(" private(%s)", p.Name)
	}
	return out
}

package analysis

import (
	"slices"

	"vbuscluster/internal/f77"
	"vbuscluster/internal/lmad"
)

// Nest is the dependence record of one outermost loop (§3–4, Figure
// 5): every reference in its body, built once under all the loops
// around it, an inner loop's bounds resolved over the full ranges of
// the loops around that loop (a hull, for a triangle). Each loop of the
// nest tests its iterations on descriptors derived from these, and
// partition splits the outermost loop by their summary set.
type Nest struct {
	refs   []ref
	levels []level // every DO loop of the nest, in walk order
	// While it is built: the levels around the statement walked, and
	// the resolved ones at the first iteration of the loops around them
	// (To = From).
	open  []int
	first []LoopCtx
}

// ref is one reference of the nest.
type ref struct {
	acc   Access       // expanded over loops
	loops []LoopCtx    // the resolved loops around it, outermost first
	subs  []f77.Expr   // its subscripts, for Explain
	typ   lmad.AccType // §4.2 class at statement granularity
	write bool
	reach reach
}

// reach says how far a descriptor is what its statement does: exact;
// partial, under an IF or a loop whose bounds move (a write's
// descriptor then spans cells it may skip); or never, in a loop that
// runs no trip, a placeholder that may even reach outside the array.
type reach uint8

const (
	exact reach = iota
	partial
	never
)

// level is one DO loop of the nest: its place in the loop lists of
// the references inside it (-1 when its header did not resolve) and the
// first reason it is not parallel.
type level struct {
	ctx   LoopCtx
	depth int
	why   reason
	// dry is an inner loop that, at the first iteration of the loops
	// around it, runs no trip and starts outside its range (Nest.dry).
	dry *f77.Symbol
}

// reason is a constant format and its operands, a name or a
// conflicting pair and their distance (0 when not known); only Explain
// formats it.
type reason struct {
	format, name string
	w, x         refText
	dist         int64
}

// refText is a reference as written, for Explain.
type refText struct {
	sym  *f77.Symbol
	subs []f77.Expr
}

// buildNest walks the outermost loop root once, building its record.
// Parallel-detect hangs the record on every loop of the nest.
func buildNest(root *f77.DoLoop) *Nest {
	n := &Nest{}
	n.loop(root, nil, exact)
	n.open, n.first = nil, nil
	return n
}

// NestOf returns the dependence record of the nest whose outermost
// loop is root: the one parallel-detect hung on it while it holds its
// references, or else a record built now (after Release, or for a loop
// that only a !$PAR directive marked).
func NestOf(root *f77.DoLoop) *Nest {
	if n, ok := root.Deps.(*Nest); ok && n.refs != nil {
		return n
	}
	return buildNest(root)
}

// Release drops the record's references, which only partition reads,
// keeping the loops' verdicts and reasons: a compiled program holds no
// more than those. A later partition builds the record again (NestOf).
func (n *Nest) Release() { n.refs = nil }

// fail gives why to every loop around the statement walked that has no
// reason yet: each holds the statement in its body.
func (n *Nest) fail(format, name string) {
	for _, i := range n.open {
		if n.levels[i].why.format == "" {
			n.levels[i].why = reason{format: format, name: name}
		}
	}
}

func (n *Nest) loop(x *f77.DoLoop, loops []LoopCtx, at reach) {
	ctx, bad := resolveLoop(x, loops)
	n.open = append(n.open, len(n.levels))
	n.levels = append(n.levels, level{ctx: ctx, depth: len(loops)})
	switch {
	case bad != "":
		// The body is still walked, for the loops inside.
		n.levels[len(n.levels)-1].depth = -1
		n.fail(bad, x.Var.Name)
		at = max(at, partial)
	case ctx.Trips() == 0:
		at = never
	case !ctx.Exact:
		at = max(at, partial)
	}
	if bad == "" {
		n.dry(x, ctx)
		loops = append(loops[:len(loops):len(loops)], ctx)
	}
	n.stmts(x.Body, loops, at)
	if bad == "" {
		n.first = n.first[:len(n.first)-1]
	}
	n.open = n.open[:len(n.open)-1]
}

// dry resolves loop x, whose range over the loops around it is ctx, at
// their first iterations, and pushes it on first. When x then runs no
// trip and starts outside ctx, at a value it never takes, every level
// around x is kept serial: conservatively, since a test pinned to that
// first iteration would place x's references there.
func (n *Nest) dry(x *f77.DoLoop, ctx LoopCtx) {
	first, _ := resolveLoop(x, n.first)
	if first.Trips() == 0 && (first.From < min(ctx.From, ctx.To) || first.From > max(ctx.From, ctx.To)) {
		for _, i := range n.open[:len(n.open)-1] {
			if n.levels[i].dry == nil {
				n.levels[i].dry = x.Var
			}
		}
	}
	first.To = first.From
	n.first = append(n.first, first)
}

func (n *Nest) stmts(stmts []f77.Stmt, loops []LoopCtx, at reach) {
	for _, s := range stmts {
		switch x := s.(type) {
		case *f77.Assign:
			n.assign(x, loops, at)
		case *f77.DoLoop:
			n.loop(x, loops, at)
		case *f77.IfBlock:
			// Conservative: every arm runs; the conditions are reads.
			for _, c := range x.Conds {
				n.reads(c, loops, at)
			}
			for _, blk := range x.Blocks {
				n.stmts(blk, loops, max(at, partial))
			}
			n.stmts(x.Else, loops, max(at, partial))
		case *f77.ContinueStmt:
		case *f77.CallStmt:
			n.fail("CALL %s inside the loop (not inlined)", x.Name)
		case *f77.Goto:
			n.fail("GOTO inside the loop", "")
		case *f77.PrintStmt:
			n.fail("I/O inside the loop", "")
		case *f77.ReturnStmt, *f77.StopStmt:
			n.fail("control transfer inside the loop", "")
		default:
			n.fail("unhandled statement inside the loop", "")
		}
	}
}

func (n *Nest) add(acc Access, subs []f77.Expr, loops []LoopCtx, typ lmad.AccType, write bool, at reach) {
	n.refs = append(n.refs, ref{acc: acc, loops: loops, subs: subs, typ: typ, write: write, reach: at})
}

func (n *Nest) reads(e f77.Expr, loops []LoopCtx, at reach) {
	f77.WalkExpr(e, func(sub f77.Expr) {
		switch v := sub.(type) {
		case *f77.VarExpr:
			if !v.Sym.IsConst && !isLoopVar(v.Sym, loops) {
				acc, _ := BuildAccess(v.Sym, nil, loops)
				n.add(acc, nil, loops, lmad.ReadOnly, false, at)
			}
		case *f77.ArrayExpr:
			if acc, ok := BuildAccess(v.Sym, v.Subs, loops); ok {
				n.add(acc, v.Subs, loops, lmad.ReadOnly, false, at)
			} else {
				n.fail("non-affine access to %s", v.Sym.Name)
			}
		case *f77.CallExpr:
			if !v.Intrinsic {
				n.fail("user function %s inside the loop", v.Name)
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

// assign classifies a statement's write per §4.2: WriteFirst unless
// the statement reads an overlapping region of the same array
// (ReadWrite). Subscripts of the target are reads.
func (n *Nest) assign(a *f77.Assign, loops []LoopCtx, at reach) {
	for _, sub := range a.LHS.Subs {
		n.reads(sub, loops, at)
	}
	rhs := len(n.refs)
	n.reads(a.RHS, loops, at)
	wacc, ok := BuildAccess(a.LHS.Sym, a.LHS.Subs, loops)
	if !ok {
		n.fail("non-affine write to %s", a.LHS.Sym.Name)
		return
	}
	// Same-statement read of the same region → ReadWrite (e.g. the
	// C(I,J) = C(I,J) + ... pattern): reads just appended every
	// analysable RHS reference to the array. A bare mention of the
	// symbol counts whatever its bounds.
	typ := lmad.WriteFirst
	for i := range n.refs[rhs:] {
		if r := &n.refs[rhs+i]; r.acc.Sym == a.LHS.Sym && lmad.BoundsOverlap(r.acc.L, wacc.L) {
			typ = lmad.ReadWrite
		}
	}
	f77.WalkExpr(a.RHS, func(sub f77.Expr) {
		if v, ok := sub.(*f77.VarExpr); ok && v.Sym == a.LHS.Sym {
			typ = lmad.ReadWrite
		}
	})
	n.add(wacc, a.LHS.Subs, loops, typ, true, at)
}

// skips reports whether lv's test leaves r out: the loop's reductions
// and privatized scalars, and stores to its index or an inner loop's.
func (lv *level) skips(r *ref) bool {
	loop := lv.ctx.Loop
	return slices.Contains(loop.Private, r.acc.Sym) ||
		slices.ContainsFunc(loop.Reductions, func(red *f77.Reduction) bool { return red.Sym == r.acc.Sym }) ||
		isLoopVar(r.acc.Sym, r.loops[lv.depth:])
}

// Outer returns the outermost loop's bounds, and false when its header
// or body could not be analysed.
func (n *Nest) Outer() (LoopCtx, bool) {
	lv := &n.levels[0]
	return lv.ctx, lv.depth == 0 && lv.why.format == ""
}

// class returns r's class in the outermost loop's summary set, or false
// when the set leaves r out. A partial write is ReadWrite: its collect
// ships cells the iteration never writes, so the slave must hold the
// master's values of them first.
func (n *Nest) class(r *ref) (lmad.AccType, bool) {
	switch {
	case r.reach == never || n.levels[0].skips(r):
		return 0, false
	case r.write && r.reach == partial:
		return lmad.ReadWrite, true
	}
	return r.typ, true
}

// Summary returns the outermost loop's summary set (Figure 5),
// normalized so that conflicting ReadOnly/WriteFirst regions are
// promoted to ReadWrite. Call it only when Outer is ok.
func (n *Nest) Summary() *lmad.Summary {
	s := lmad.NewSummary()
	for i := range n.refs {
		if t, ok := n.class(&n.refs[i]); ok {
			s.Add(t, n.refs[i].acc.L)
		}
	}
	s.Merge(lmad.NewSummary()) // normalize
	return s
}

// AccessesOf returns the accesses of the outermost loop's summary set
// whose effective class in sum, its Summary, equals t.
func (n *Nest) AccessesOf(sum *lmad.Summary, t lmad.AccType) []Access {
	var out []Access
	for i := range n.refs {
		r := &n.refs[i]
		eff, ok := n.class(r)
		if !ok {
			continue
		}
		if eff != lmad.ReadWrite && slices.ContainsFunc(sum.Sets[lmad.ReadWrite], r.acc.L.Equal) {
			eff = lmad.ReadWrite
		}
		if eff == t {
			out = append(out, r.acc)
		}
	}
	return out
}

// entry is one distinct per-iteration descriptor in a loop's test, with
// the first reference and the first write that have it.
type entry struct {
	r, w *ref
	l    lmad.LMAD
}

// independent is the Access Region Test (§4, [2]) for loop lv: it is
// parallel iff no location written in one iteration is accessed in
// another. Each reference's per-iteration descriptor pins the loop's
// variable and the enclosing ones to their first values; pinning moves
// two references alike only where their coefficients agree, so a pair
// that differs ranges over those variables (spread). It records the
// first reason the loop is not parallel; list is scratch, returned for
// reuse.
func (n *Nest) independent(lv *level, list []entry) ([]entry, bool) {
	switch {
	case lv.depth < 0:
		return list, false
	case lv.ctx.Trips() <= 1:
		return list, true
	case lv.why.format != "":
		return list, false
	case lv.dry != nil:
		lv.why = reason{format: "DO %s runs no trip at the loop's first iteration", name: lv.dry.Name}
		return list, false
	}
	d, v := lv.depth, lv.ctx.Var
	list = list[:0]
refs:
	for i := range n.refs {
		r := &n.refs[i]
		if len(r.loops) <= d || r.loops[d].Loop != lv.ctx.Loop || lv.skips(r) {
			continue
		}
		if r.write && !r.acc.Sym.IsArray() {
			lv.why = reason{format: "scalar %s written", name: r.acc.Sym.Name}
			return list, false
		}
		l := r.acc.at(r.loops, d+1, nil)
		for j := range list {
			if e := &list[j]; e.r.acc.Sym == r.acc.Sym && e.l.Equal(l) && sameCoeffs(e.r, r, r.loops[:d+1]) {
				if r.write && e.w == nil {
					e.w = r
				}
				continue refs
			}
		}
		e := entry{r: r, l: l}
		if r.write {
			e.w = r
		}
		list = append(list, e)
	}
	for i := range list {
		w := list[i].w
		if w == nil {
			continue
		}
		for j := range list {
			x := &list[j]
			if x.r.acc.Sym != w.acc.Sym {
				continue
			}
			wl, xl, why := list[i].l, x.l, "%s and %s meet"
			if !sameCoeffs(w, x.r, w.loops[:d]) {
				wl, xl = spread(wl, w, x.r, w.loops[:d]), spread(xl, x.r, w, w.loops[:d])
				why = "%s and %s, apart in an enclosing loop's coefficient, meet"
			}
			if meet, dist := crossIteration(wl, xl, w.acc.Coeff(v), x.r.acc.Coeff(v), lv.ctx); meet {
				lv.why = reason{format: why, w: refText{w.acc.Sym, w.subs}, x: refText{x.r.acc.Sym, x.r.subs}, dist: dist}
				return list, false
			}
		}
	}
	return list, true
}

// spread returns r's descriptor l with each variable of loops whose
// coefficient r and other do not share expanded over its range.
func spread(l lmad.LMAD, r, other *ref, loops []LoopCtx) lmad.LMAD {
	for _, c := range loops {
		if co := r.acc.Coeff(c.Var); co != other.acc.Coeff(c.Var) {
			stride := co * c.Step
			l = l.WithDim(stride, stride*(max(c.Trips(), 1)-1))
		}
	}
	return l
}

// sameCoeffs reports whether a and b have the same coefficient of every
// variable of loops.
func sameCoeffs(a, b *ref, loops []LoopCtx) bool {
	for _, c := range loops {
		if a.acc.Coeff(c.Var) != b.acc.Coeff(c.Var) {
			return false
		}
	}
	return true
}

// crossIteration reports whether W(i) ∩ X(j) ≠ ∅ for iterations i ≠ j
// of ctx's loop, where cw and cx move the descriptors per step, and a
// distance at which they meet (0 when not known).
func crossIteration(w, x lmad.LMAD, cw, cx int64, ctx LoopCtx) (bool, int64) {
	trips := ctx.Trips()
	if cw == 0 && cx == 0 {
		// Both invariant in the loop: every iteration touches the same
		// regions.
		return lmad.Overlap(w, x, enumLimit), 1
	}
	if cw != cx {
		// Different coefficients: the displacement varies per iteration
		// pair; fall back to whole-expansion overlap (conservative —
		// the expansions include the same-iteration points, so this can
		// only over-report dependence, never miss one).
		wFull := w.WithDim(cw*ctx.Step, cw*ctx.Step*(trips-1))
		xFull := x.WithDim(cx*ctx.Step, cx*ctx.Step*(trips-1))
		return lmad.Overlap(wFull, xFull, enumLimit), 0
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
	extent := max(w.High(), x.High()) - min(w.Low(), x.Low())
	maxD := trips - 1
	if lim := extent/shift + 1; lim < maxD {
		maxD = lim
	}
	if maxD > maxShiftChecks {
		return true, 0 // conservative for enormous loops
	}
	d := lmad.OverlapShifts(w, x, shift, maxD, enumLimit)
	return d > 0, d
}

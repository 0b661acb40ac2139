package analysis

import (
	"fmt"
	"strings"

	"vbuscluster/internal/f77"
)

// maxShiftChecks bounds the iteration distances the Access Region Test
// considers per pair. Loops whose regions could meet at more distances
// than this are treated conservatively (serial).
const maxShiftChecks = 1 << 14

// enumLimit bounds exact enumeration inside overlap tests.
const enumLimit = 1 << 16

// DetectParallel runs the front end's parallelism detection over every
// loop in the unit (§3): it builds each outermost loop's dependence
// record (Nest) in one walk, then runs reduction recognition,
// privatization and the Access Region Test for every loop of the nest
// on that record. Loops proven independent are marked Parallel, with
// BLOCK or CYCLIC schedules per §5.3. Loops already marked by a !$PAR
// directive keep the mark.
func DetectParallel(u *f77.Unit) {
	var list []entry
	var visit func(stmts []f77.Stmt)
	visit = func(stmts []f77.Stmt) {
		for _, s := range stmts {
			switch x := s.(type) {
			case *f77.DoLoop:
				n := buildNest(x)
				for i := range n.levels {
					lv := &n.levels[i]
					lv.ctx.Loop.Deps = n
					if lv.depth >= 0 {
						list = analyzeLoop(u, n, lv, list)
					}
				}
				if !x.Parallel {
					n.Release() // partition splits parallel loops only
				}
			case *f77.IfBlock:
				for _, blk := range x.Blocks {
					visit(blk)
				}
				visit(x.Else)
			}
		}
	}
	visit(u.Body)
}

func analyzeLoop(u *f77.Unit, n *Nest, lv *level, list []entry) []entry {
	loop := lv.ctx.Loop
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
		return list // explicit directive wins
	}
	list, loop.Parallel = n.independent(lv, list)
	return list
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
			if ctx, bad := resolveLoop(x, nil); bad == "" && ctx.Exact && ctx.Trips() >= 1 {
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
// annotations (used by cmd/vbcc -explain), with the record's reason
// beside a serial verdict.
func Explain(loop *f77.DoLoop) string {
	out := fmt.Sprintf("DO %s: parallel=%v schedule=%s", loop.Var.Name, loop.Parallel, loop.Schedule)
	for _, r := range loop.Reductions {
		out += fmt.Sprintf(" reduction(%s %s)", r.Op, r.Sym.Name)
	}
	for _, p := range loop.Private {
		out += fmt.Sprintf(" private(%s)", p.Name)
	}
	if n, ok := loop.Deps.(*Nest); ok && !loop.Parallel {
		for _, lv := range n.levels {
			if r := lv.why; lv.ctx.Loop == loop && r.format != "" {
				switch {
				case r.dist > 0:
					out += fmt.Sprintf(" because "+r.format+" at distance %d", r.w, r.x, r.dist)
				case r.w.sym != nil:
					out += fmt.Sprintf(" because "+r.format+" across iterations", r.w, r.x)
				default:
					out += " because " + strings.Replace(r.format, "%s", r.name, 1)
				}
			}
		}
	}
	return out
}

// String renders the reference as written.
func (r refText) String() string {
	if len(r.subs) == 0 {
		return r.sym.Name
	}
	return f77.FormatExpr(&f77.ArrayExpr{Sym: r.sym, Subs: r.subs})
}

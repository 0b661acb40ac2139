package interp

import (
	"vbuscluster/internal/cluster"
	"vbuscluster/internal/f77"
	"vbuscluster/internal/sim"
)

// intrinsicWeights cost intrinsics in FlopTime units (rough 2001-era
// libm latencies relative to a multiply-add).
var intrinsicWeights = map[string]int64{
	"SQRT": 6, "EXP": 12, "LOG": 12, "ALOG": 12,
	"SIN": 15, "COS": 15, "TAN": 20, "ATAN": 20, "ATAN2": 22,
	"MOD": 3, "DMOD": 3, "SIGN": 2, "NINT": 2,
}

// cost is a static charge as a linear form over the CPU model: so many
// integer operations, floating-point operations and call overheads. A
// statement's price depends only on its shape, so lowering computes
// the form once and execution resolves it against the run's
// cluster.CPUParams — the lowered program itself stays machine
// independent. Virtual time is integer picoseconds, so summing forms
// before resolving them gives exactly the sum of the resolved terms.
type cost struct {
	ints, flops, calls int64
}

func (c cost) plus(d cost) cost {
	return cost{c.ints + d.ints, c.flops + d.flops, c.calls + d.calls}
}

// at resolves the form against one machine's CPU model.
func (c cost) at(cpu *cluster.CPUParams) sim.Time {
	return sim.Time(c.ints)*cpu.IntOpTime + sim.Time(c.flops)*cpu.FlopTime + sim.Time(c.calls)*cpu.CallOverhead
}

// exprCost statically prices one expression evaluation.
func exprCost(e f77.Expr) cost {
	switch x := e.(type) {
	case *f77.ArrayExpr:
		// Address arithmetic per subscript plus the load.
		c := cost{ints: int64(len(x.Subs)) + 1}
		for _, s := range x.Subs {
			c = c.plus(exprCost(s))
		}
		return c
	case *f77.Un:
		return exprCost(x.X).plus(opCost(f77.TypeOf(x).IsFloat()))
	case *f77.Bin:
		c := exprCost(x.L).plus(exprCost(x.R))
		switch x.Op {
		case f77.OpAnd, f77.OpOr, f77.OpLT, f77.OpLE, f77.OpGT, f77.OpGE, f77.OpEQ, f77.OpNE:
			return c.plus(cost{ints: 1})
		case f77.OpPow:
			return c.plus(cost{flops: 10})
		default:
			return c.plus(opCost(f77.TypeOf(x.L).IsFloat() || f77.TypeOf(x.R).IsFloat()))
		}
	case *f77.CallExpr:
		var c cost
		for _, a := range x.Args {
			c = c.plus(exprCost(a))
		}
		if x.Intrinsic {
			w := intrinsicWeights[x.Name]
			if w == 0 {
				w = 1
			}
			return c.plus(cost{flops: w})
		}
		// User functions price dynamically during execution; the call
		// site only carries the overhead here (body charges itself).
		return c.plus(cost{calls: 1})
	default: // literals and scalar reads are free
		return cost{}
	}
}

func opCost(float bool) cost {
	if float {
		return cost{flops: 1}
	}
	return cost{ints: 1}
}

// assignCost prices one executed assignment: the right-hand side, the
// store, and the address arithmetic of the left-hand side.
func assignCost(a *f77.Assign) cost {
	c := exprCost(a.RHS).plus(cost{ints: 1})
	for _, s := range a.LHS.Subs {
		c = c.plus(exprCost(s)).plus(cost{ints: 1})
	}
	return c
}

// callsUser reports whether any of a statement's own expressions calls
// a user function, whose cost is execution-dependent.
func callsUser(s f77.Stmt) bool {
	found := false
	f77.StmtExprs(s, func(e f77.Expr) {
		f77.WalkExpr(e, func(sub f77.Expr) {
			if c, ok := sub.(*f77.CallExpr); ok && !c.Intrinsic {
				found = true
			}
		})
	})
	return found
}

// reads reports whether e mentions the scalar sym.
func reads(e f77.Expr, sym *f77.Symbol) bool {
	found := false
	f77.WalkExpr(e, func(sub f77.Expr) {
		if v, ok := sub.(*f77.VarExpr); ok && v.Sym == sym {
			found = true
		}
	})
	return found
}

// boundsRead reports whether any loop nested in stmts has bounds that
// mention sym (triangular nests need per-iteration costing).
func boundsRead(stmts []f77.Stmt, sym *f77.Symbol) bool {
	dep := false
	f77.WalkStmts(stmts, func(s f77.Stmt) bool {
		if inner, ok := s.(*f77.DoLoop); ok {
			if reads(inner.From, sym) || reads(inner.To, sym) || reads(inner.Step, sym) {
				dep = true
			}
		}
		return !dep
	})
	return dep
}

// bulkCost prices trips iterations of a bulkable loop without executing
// its body. Only loop variables are written: each level's variable
// takes the values its bounds depend on, so inner bounds evaluate
// exactly as they would during execution.
func (l *loop) bulkCost(env *Env, from, step, trips int64) sim.Time {
	if trips <= 0 {
		return 0
	}
	iter := env.cpu.LoopOverhead + env.spmdTax
	if !l.varDep {
		env.setInt(l.v, from)
		return sim.Time(trips) * (iter + l.bodyCost(env))
	}
	var total sim.Time
	v := from
	for k := int64(0); k < trips; k++ {
		env.setInt(l.v, v)
		total += iter + l.bodyCost(env)
		v += step
	}
	return total
}

// bodyCost prices one iteration of a bulkable loop's body with the
// enclosing loop variables as currently stored: the pre-summed
// assignments plus every directly nested loop in closed form.
func (l *loop) bodyCost(env *Env) sim.Time {
	total := l.assigns.at(&env.cpu)
	for _, in := range l.inner {
		from, step, trips := in.bounds(env)
		total += 3*env.cpu.IntOpTime + in.bulkCost(env, from, step, trips)
		// The loop variable's post-loop value per the Fortran standard.
		env.setInt(in.v, from+trips*step)
	}
	return total
}

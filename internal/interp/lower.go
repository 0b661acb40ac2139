package interp

import (
	"fmt"
	"sync"

	"vbuscluster/internal/analysis"
	"vbuscluster/internal/f77"
)

// Lowered is the executable form of one analysed program, built once by
// Lower and immutable afterwards: sequential runs, every rank of a
// parallel run, resilient replays on retranslated plans and concurrent
// runs of one cached compilation all execute the same Lowered. What
// stays dynamic lives in Env: the frame, the COMMON blocks, the CALL
// stack, the pending charge and the SPMD per-iteration tax.
//
// Lowering is demand-driven below the main unit's top level: a loop's
// header and closed-form cost are lowered with the statement list that
// holds the loop, its body when the loop first executes iteration by
// iteration (a loop Timing mode charges in bulk never needs its body's
// nodes), and a CALLed unit on its first call.
type Lowered struct {
	prog *f77.Program
	// slots assigns every symbol of every unit a dense frame index;
	// syms is the inverse. A unit's symbols are contiguous, so a CALL
	// saves and restores one sub-slice of the frame.
	slots map[*f77.Symbol]int
	syms  []*f77.Symbol
	// layouts holds the constant layout of each array slot (nil for
	// scalars and for arrays whose bounds do not fold).
	layouts []*analysis.ArrayLayout
	units   map[*f77.Unit]*unit
	main    *unit
	// top locates each top-level statement of the main unit in
	// main.body, and topLoops each top-level DO's node: sequential SPMD
	// regions are runs of these statements, parallel ones these loops.
	top      map[f77.Stmt]int
	topLoops map[*f77.DoLoop]*loop
	// hasStop notes a STOP anywhere in the main unit: such programs
	// share the master's halt decision after each sequential section.
	hasStop bool
	// frameSize counts the cells of the main unit's framed arrays:
	// a Full-mode Env carves them from one block of that size. frames
	// recycles the slaves' blocks across runs.
	frameSize int64
	frames    sync.Pool

	// mu guards the chunk nodes, blocks and statement lists are carved
	// from (see node).
	mu                     sync.Mutex
	cur                    *chunk
	nNodes, nBlocks, nRuns int
}

// unit is one program unit's lowered form.
type unit struct {
	src *f77.Unit
	// lo and hi bound the unit's slot range; scalars counts its plain
	// local scalars (allocated as one block per frame).
	lo, hi, scalars int
	once            sync.Once
	body            *block
	// params are the dummies' slots and arrays the local arrays a CALL
	// frame binds and allocates.
	params []int
	arrays []localArray
}

// localArray sizes one local array of a CALLed unit in the callee's
// frame (its bounds may mention just-bound dummies).
type localArray struct {
	slot int
	ext  []dimFn
}

// dimFn evaluates one declared dimension's bounds; high is absent for
// an assumed-size dimension.
type dimFn struct {
	low, high iexpr
}

// Lower builds the executable form of an analysed program. It cannot
// fail: anything wrong with a node (an unknown callee, an unbound
// array, a subscript out of bounds) is reported when — and only when —
// that node executes.
func Lower(prog *f77.Program) *Lowered {
	n := 0
	for _, u := range prog.Units {
		n += len(u.Syms.Order)
	}
	lw := &Lowered{
		prog:    prog,
		slots:   make(map[*f77.Symbol]int, n),
		syms:    make([]*f77.Symbol, 0, n),
		layouts: make([]*analysis.ArrayLayout, n),
		units:   make(map[*f77.Unit]*unit, len(prog.Units)),
	}
	for _, src := range prog.Units {
		u := &unit{src: src, lo: len(lw.syms)}
		for _, sym := range src.Syms.Order {
			slot := len(lw.syms)
			lw.slots[sym] = slot
			lw.syms = append(lw.syms, sym)
			if sym.IsArray() {
				if lay, err := analysis.LayoutOf(sym); err == nil {
					lw.layouts[slot] = &lay
				}
			} else if !sym.IsConst && !sym.IsArg && sym.Common == "" {
				u.scalars++
			}
		}
		u.hi = len(lw.syms)
		lw.units[src] = u
	}
	if src := prog.Main(); src != nil {
		lw.main = lw.units[src]
		lw.top = make(map[f77.Stmt]int, len(src.Body))
		lw.topLoops = map[*f77.DoLoop]*loop{}
		var loops []*loop
		for i, s := range src.Body {
			lw.top[s] = i
			if x, ok := s.(*f77.DoLoop); ok {
				lw.topLoops[x] = lw.loop(x)
				loops = append(loops, lw.topLoops[x])
			}
		}
		lw.main.body = lw.block(src.Body, loops)
		for slot := lw.main.lo; slot < lw.main.hi; slot++ {
			lw.frameSize += lw.framed(slot)
		}
		f77.WalkStmts(src.Body, func(s f77.Stmt) bool {
			if _, ok := s.(*f77.StopStmt); ok {
				lw.hasStop = true
			}
			return !lw.hasStop
		})
	}
	return lw
}

// framed returns the cells a main-unit slot takes from its Env's
// frame block: its layout size for a constant-layout array that is
// neither a dummy nor in COMMON, 0 for any other symbol.
func (lw *Lowered) framed(slot int) int64 {
	sym, lay := lw.syms[slot], lw.layouts[slot]
	if sym.IsConst || sym.IsArg || sym.Common != "" || lay == nil {
		return 0
	}
	return lay.Size
}

// frame returns a zeroed block of frameSize cells, from which a
// Full-mode Env carves its arrays. A pooled block, for a slave of a
// parallel run, is a recycled one when the pool holds one of that
// size, cleared, and a new one otherwise; only a successful attempt
// hands its slaves' blocks back (supervisor.attempt). The master and a
// sequential run take a new block every time, because Result.Mem hands
// out their arrays.
func (lw *Lowered) frame(pooled bool) *[]float64 {
	if pooled {
		if f, _ := lw.frames.Get().(*[]float64); f != nil && int64(len(*f)) == lw.frameSize {
			clear(*f)
			return f
		}
	}
	f := make([]float64, lw.frameSize)
	return &f
}

// code returns a CALLed unit's body, lowering it on the first call.
func (lw *Lowered) code(u *unit) *block {
	u.once.Do(func() {
		for _, dummy := range u.src.Params {
			u.params = append(u.params, lw.slots[dummy])
		}
		for slot := u.lo; slot < u.hi; slot++ {
			sym := lw.syms[slot]
			if sym.IsArg || sym.IsConst || sym.Common != "" || !sym.IsArray() {
				continue
			}
			la := localArray{slot: slot}
			for _, d := range sym.Dims {
				var df dimFn
				if d.Low != nil {
					df.low = lw.lowerI(d.Low)
				}
				if d.High != nil {
					df.high = lw.lowerI(d.High)
				}
				la.ext = append(la.ext, df)
			}
			u.arrays = append(u.arrays, la)
		}
		u.body = lw.block(u.src.Body, nil)
	})
	return u.body
}

// span locates a sequential SPMD region — a run of consecutive
// top-level statements of the main unit — in the main block.
func (lw *Lowered) span(stmts []f77.Stmt) (lo, hi int, err error) {
	if len(stmts) == 0 {
		return 0, 0, nil
	}
	lo, ok := lw.top[stmts[0]]
	last, ok2 := lw.top[stmts[len(stmts)-1]]
	if !ok || !ok2 || last-lo != len(stmts)-1 {
		return 0, 0, fmt.Errorf("interp: region at line %d is not a run of the lowered program's top-level statements", stmts[0].Line())
	}
	return lo, last + 1, nil
}

// topLoop finds the lowered form of a top-level DO of the main unit
// (the parallel loop of an SPMD region).
func (lw *Lowered) topLoop(x *f77.DoLoop) (*loop, error) {
	if l := lw.topLoops[x]; l != nil {
		return l, nil
	}
	return nil, fmt.Errorf("interp: parallel loop at line %d is not a top-level loop of the lowered program", x.Line())
}

// ---- Statements ----

// ctrl is the statement-level control-flow outcome.
type ctrl int

const (
	ctrlNormal ctrl = iota
	ctrlReturn
	ctrlStop
	ctrlJump // to the label in Env.jump
)

// block is a lowered statement list.
type block struct {
	run []stmtFn
	// labels maps the statement labels of this list to positions in
	// run, resolving GOTOs that land here; nil when the list has none.
	labels map[int]int
}

// exec runs the whole list.
func (b *block) exec(env *Env) ctrl { return b.execRange(env, 0, len(b.run)) }

// execRange runs statements [lo, hi), resolving GOTO targets within the
// range and propagating unresolved jumps upward.
func (b *block) execRange(env *Env, lo, hi int) ctrl {
	for i := lo; i < hi; {
		c := b.run[i].exec(env)
		if c == ctrlNormal {
			i++
			continue
		}
		if c != ctrlJump {
			return c
		}
		j, ok := b.labels[env.jump]
		if !ok || j < lo || j >= hi {
			return c
		}
		i = j
	}
	return ctrlNormal
}

// block lowers a statement list. pre, when non-nil, holds the already
// lowered nodes of the DO statements directly in the list, in order (a
// loop lowers its direct inner loops with its own header, for bulk
// costing, before its body is ever needed).
func (lw *Lowered) block(stmts []f77.Stmt, pre []*loop) *block {
	b := lw.newBlock(len(stmts))
	for i, s := range stmts {
		if lbl := s.Label(); lbl != 0 {
			if b.labels == nil {
				b.labels = map[int]int{}
			}
			if _, dup := b.labels[lbl]; !dup {
				b.labels[lbl] = i
			}
		}
		if x, ok := s.(*f77.DoLoop); ok {
			var l *loop
			if pre != nil {
				l, pre = pre[0], pre[1:]
			} else {
				l = lw.loop(x)
			}
			n := lw.newNode()
			n.s, n.l = execLoop, l
			b.run[i] = stmtFn{n}
			continue
		}
		b.run[i] = lw.stmt(s)
	}
	return b
}

func (lw *Lowered) stmt(s f77.Stmt) stmtFn {
	simple := func(f func(*node, *Env) ctrl) stmtFn {
		n := lw.newNode()
		n.s = f
		return stmtFn{n}
	}
	switch x := s.(type) {
	case *f77.Assign:
		return lw.assign(x, assignCost(x))
	case *f77.ContinueStmt:
		return simple(func(*node, *Env) ctrl { return ctrlNormal })
	case *f77.IfBlock:
		return lw.ifBlock(x)
	case *f77.Goto:
		n := lw.newNode()
		n.s, n.n = execGoto, int64(x.Target)
		return stmtFn{n}
	case *f77.CallStmt:
		return lw.callStmt(x)
	case *f77.ReturnStmt:
		return simple(func(*node, *Env) ctrl { return ctrlReturn })
	case *f77.StopStmt:
		return simple(func(*node, *Env) ctrl { return ctrlStop })
	case *f77.PrintStmt:
		return lw.print(x)
	default:
		line := s.Line()
		return lw.st(func(env *Env) ctrl {
			env.fail(line, "unhandled statement %T", s)
			return ctrlNormal
		})
	}
}

func execLoop(n *node, env *Env) ctrl { return n.l.exec(env) }

func execGoto(n *node, env *Env) ctrl {
	env.pending += env.cpu.IntOpTime
	env.jump = int(n.n)
	return ctrlJump
}

func (lw *Lowered) ifBlock(x *f77.IfBlock) stmtFn {
	type arm struct {
		cost cost
		cond bexpr
		body *block
	}
	arms := make([]arm, len(x.Conds))
	for k, cond := range x.Conds {
		arms[k] = arm{exprCost(cond), lw.lowerB(cond), lw.block(x.Blocks[k], nil)}
	}
	els := lw.block(x.Else, nil)
	return lw.st(func(env *Env) ctrl {
		for k := range arms {
			a := &arms[k]
			env.pending += a.cost.at(&env.cpu)
			if a.cond.eval(env) {
				return a.body.exec(env)
			}
		}
		return els.exec(env)
	})
}

func (lw *Lowered) print(x *f77.PrintStmt) stmtFn {
	// Each argument renders as a string, an integer or a float.
	type arg struct {
		s string
		i iexpr
		f fexpr
	}
	args := make([]arg, len(x.Args))
	for k, a := range x.Args {
		switch v := a.(type) {
		case *f77.StrLit:
			args[k].s = v.Val
		default:
			if f77.TypeOf(a) == f77.TInteger {
				args[k].i = lw.lowerI(a)
			} else {
				args[k].f = lw.lowerF(a)
			}
		}
	}
	return lw.st(func(env *Env) ctrl {
		env.pending += env.cpu.CallOverhead
		if env.mode != Full || env.out == nil {
			return ctrlNormal
		}
		parts := make([]any, len(args))
		for k := range args {
			switch a := &args[k]; {
			case a.i.node != nil:
				parts[k] = a.i.eval(env)
			case a.f.node != nil:
				parts[k] = a.f.eval(env)
			default:
				parts[k] = a.s
			}
		}
		fmt.Fprintln(env.out, parts...)
		return ctrlNormal
	})
}

// assign lowers LHS = RHS, charged c. Execution order: charge, resolve
// the target cell (subscripts, bounds check), evaluate the right-hand
// side, store — so a bad target subscript is reported before the
// right-hand side runs.
func (lw *Lowered) assign(x *f77.Assign, c cost) stmtFn {
	sym := x.LHS.Sym
	// The stored value, converted by the target's type.
	var rhs fexpr
	switch {
	case f77.TypeOf(x.RHS) == f77.TLogical && sym.Type == f77.TLogical:
		rhs = lw.unF(boolToF, lw.lowerB(x.RHS).node)
	case sym.Type == f77.TInteger && f77.TypeOf(x.RHS) != f77.TInteger:
		rhs = lw.unF(truncF, lw.lowerF(x.RHS).node) // REAL→INTEGER truncates
	default:
		rhs = lw.lowerF(x.RHS) // integer right-hand sides go through int64 inside
	}
	slot, line := lw.slots[sym], x.Line()
	if len(x.LHS.Subs) == 0 {
		if sym.IsArray() || sym.IsConst {
			// Rejected by the semantic pass; kept for unanalysed input.
			return lw.st(func(env *Env) ctrl {
				env.pending += c.at(&env.cpu)
				buf := env.storage(slot, line)
				buf[0] = rhs.eval(env)
				return ctrlNormal
			})
		}
		n := lw.newNode()
		n.s, n.slot, n.c, n.x = storeScalar, slot, c, rhs.node
		return stmtFn{n}
	}
	return lw.store(lw.ref(sym, x.LHS.Subs, line), c, rhs)
}

func boolToF(n *node, env *Env) float64 {
	if n.x.b(n.x, env) {
		return 1
	}
	return 0
}

func truncF(n *node, env *Env) float64 { return float64(int64(n.x.f(n.x, env))) }

func storeScalar(n *node, env *Env) ctrl {
	env.pending += n.c.at(&env.cpu)
	buf := env.mem[n.slot]
	buf[0] = n.x.f(n.x, env)
	return ctrlNormal
}

// ---- Loops ----

// loop is a lowered DO statement: the header, the static facts Timing
// mode prices it by, and the body.
type loop struct {
	lw   *Lowered
	src  *f77.DoLoop
	line int
	v    int // the loop variable's slot
	from iexpr
	to   iexpr
	step iexpr // absent means 1

	// bulkable says the nest can be charged in closed form: only
	// assignments, CONTINUEs and nested bulkable DO loops, and no user
	// function calls (whose cost is execution-dependent). varDep says
	// some nested loop's bounds mention this loop's variable, so the
	// nest is priced per iteration. assigns pre-sums the cost of the
	// assignments directly in the body.
	bulkable bool
	varDep   bool
	assigns  cost
	// inner are the loops directly in the body, in order.
	inner []*loop
	// straight says the loop runs on a tape (straightLine), built on
	// its first Full-mode execution; body, the node form, is lowered
	// only when the loop is not straight or a tape's entry proof fails.
	straight bool
	tapeOnce sync.Once
	tape     *tape

	once sync.Once
	body *block
}

func (lw *Lowered) loop(x *f77.DoLoop) *loop {
	l := &loop{
		lw:       lw,
		src:      x,
		line:     x.Line(),
		v:        lw.slots[x.Var],
		from:     lw.lowerI(x.From),
		to:       lw.lowerI(x.To),
		bulkable: !callsUser(x),
		varDep:   boundsRead(x.Body, x.Var),
	}
	if x.Step != nil {
		l.step = lw.lowerI(x.Step)
	}
	for _, s := range x.Body {
		switch b := s.(type) {
		case *f77.Assign:
			l.assigns = l.assigns.plus(assignCost(b))
			l.bulkable = l.bulkable && !callsUser(b)
		case *f77.ContinueStmt:
		case *f77.DoLoop:
			in := lw.loop(b)
			l.inner = append(l.inner, in)
			l.bulkable = l.bulkable && in.bulkable
		default:
			l.bulkable = false
		}
	}
	l.straight = len(l.inner) == 0 && straightLine(x, l.bulkable)
	return l
}

// block returns the loop's executable body, lowering it on first use.
func (l *loop) block() *block {
	l.once.Do(func() { l.body = l.lw.block(l.src.Body, l.inner) })
	return l.body
}

// bounds evaluates the header: first value, step and trip count.
func (l *loop) bounds(env *Env) (from, step, trips int64) {
	from = l.from.eval(env)
	to := l.to.eval(env)
	step = 1
	if l.step.node != nil {
		step = l.step.eval(env)
	}
	if step == 0 {
		env.fail(l.line, "DO step is zero")
	}
	// A DO runs max(0, (to − from + step) / step) times: DO K = 5, 4, 2
	// runs none.
	return from, step, max((to-from+step)/step, 0)
}

func (l *loop) exec(env *Env) ctrl {
	env.pending += 3 * env.cpu.IntOpTime // bound evaluation
	from, step, trips := l.bounds(env)
	if env.mode == Timing && l.bulkable {
		env.pending += l.bulkCost(env, from, step, trips)
		// The loop variable's post-loop value per the Fortran standard.
		env.setInt(l.v, from+trips*step)
		return ctrlNormal
	}
	if l.straight && l.onTape(env, from, step, trips) {
		env.setInt(l.v, from+trips*step)
		return ctrlNormal
	}
	// Per iteration only the body's chunk is read, not l.
	body, slot := l.block(), l.v
	iter := env.cpu.LoopOverhead + env.spmdTax
	v := from
	for k := int64(0); k < trips; k++ {
		env.checkCancelled()
		env.setInt(slot, v)
		env.pending += iter
		if c := body.exec(env); c != ctrlNormal {
			return c // RETURN, STOP, or a jump out of the loop
		}
		v += step
	}
	env.setInt(slot, v)
	return ctrlNormal
}

// ---- CALL frames ----

// callee resolves a CALL or function reference at lowering time; nil
// when no unit of that name and kind exists (reported when executed).
func (lw *Lowered) callee(name string, kind f77.UnitKind) *unit {
	if src := lw.prog.Lookup(name); src != nil && src.Kind == kind {
		return lw.units[src]
	}
	return nil
}

// binder evaluates one actual argument in the caller's frame and
// returns the cells its dummy aliases.
type binder func(*Env) []float64

// binders lowers a call site's actual arguments. Whole-variable actuals
// alias (Fortran passes by reference); array-element actuals alias the
// tail slice (sequence association); expression actuals materialize
// into a one-element temporary.
func (lw *Lowered) binders(callee *unit, args []f77.Expr, line int) []binder {
	out := make([]binder, len(args))
	for i, actual := range args {
		switch a := actual.(type) {
		case *f77.VarExpr:
			slot := lw.slots[a.Sym]
			out[i] = func(env *Env) []float64 { return env.storage(slot, line) }
		case *f77.ArrayExpr:
			r := lw.ref(a.Sym, a.Subs, line)
			out[i] = func(env *Env) []float64 {
				buf, idx := r.locate(env)
				return buf[idx:]
			}
		default:
			if callee.src.Params[i].Type == f77.TInteger {
				v := lw.lowerI(actual)
				out[i] = func(env *Env) []float64 { return []float64{float64(v.eval(env))} }
			} else {
				v := lw.lowerF(actual)
				out[i] = func(env *Env) []float64 { return []float64{v.eval(env)} }
			}
		}
	}
	return out
}

// enter opens one call: shadow the callee's slot range, bind dummies to
// the actuals (evaluated in the caller's frame first), allocate locals
// fresh and run the body. The callee's frame stays bound on return — a
// function's result is read from it — until leave restores the caller's
// bindings from the returned stack mark.
func (env *Env) enter(u *unit, binds []binder, line int) (mark int) {
	lw := env.lw
	body := lw.code(u)
	env.pending += env.cpu.CallOverhead
	mark = len(env.saved)
	env.saved = append(env.saved, env.mem[u.lo:u.hi]...)
	// Actuals may themselves call (and unwind) further frames, so they
	// go through the stack by index rather than by retained slice.
	for _, b := range binds {
		env.saved = append(env.saved, b(env))
	}
	args := mark + u.hi - u.lo
	for i, slot := range u.params {
		env.mem[slot] = env.saved[args+i]
	}
	env.saved = env.saved[:args]
	// Locals allocate fresh (dims may reference just-bound dummies);
	// COMMON members bind to the shared block storage instead.
	scalars := make([]float64, u.scalars)
	for slot := u.lo; slot < u.hi; slot++ {
		sym := lw.syms[slot]
		switch {
		case sym.IsArg || sym.IsConst:
		case sym.Common != "":
			buf, err := env.commonSlot(sym)
			if err != nil {
				env.fail(line, "%v", err)
			}
			env.mem[slot] = buf
		case !sym.IsArray():
			env.mem[slot], scalars = scalars[:1:1], scalars[1:]
		}
	}
	for _, la := range u.arrays {
		size := int64(1)
		for _, d := range la.ext {
			low := int64(1)
			if d.low.node != nil {
				low = d.low.eval(env)
			}
			if d.high.node == nil {
				env.fail(line, "local array %s of %s has assumed size", lw.syms[la.slot].Name, u.src.Name)
			}
			size *= d.high.eval(env) - low + 1
		}
		env.mem[la.slot] = make([]float64, size)
	}
	env.applyData(u)
	env.runBody(u, body)
	return mark
}

// leave closes the call opened at mark.
func (env *Env) leave(u *unit, mark int) {
	copy(env.mem[u.lo:u.hi], env.saved[mark:])
	env.saved = env.saved[:mark]
}

// runBody runs a unit's statements. RETURN just ends them; STOP unwinds
// to the run boundary via stopSignal.
func (env *Env) runBody(u *unit, body *block) {
	switch body.exec(env) {
	case ctrlJump:
		env.fail(0, "GOTO %d has no target in %s", env.jump, u.src.Name)
	case ctrlStop:
		panic(stopSignal{})
	}
}

func (lw *Lowered) callStmt(x *f77.CallStmt) stmtFn {
	line := x.Line()
	u := lw.callee(x.Name, f77.KSubroutine)
	if u == nil {
		return lw.st(func(env *Env) ctrl {
			env.fail(line, "CALL of unknown subroutine %s", x.Name)
			return ctrlNormal
		})
	}
	binds := lw.binders(u, x.Args, line)
	return lw.st(func(env *Env) ctrl {
		env.leave(u, env.enter(u, binds, line))
		return ctrlNormal
	})
}

// stopSignal unwinds the interpreter on STOP; run boundaries treat it
// as clean termination.
type stopSignal struct{}

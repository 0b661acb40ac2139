package interp

import (
	"slices"

	"vbuscluster/internal/f77"
	"vbuscluster/internal/sim"
)

// The tape: a DO loop whose body is only assignments (and CONTINUEs),
// with no user function call, runs its iterations on a flat register
// program instead of the node tree. Each array reference of the shape
// base + Σ slotₖ·mₖ whose slots other than the loop variable the body
// never writes is affine in the loop variable, so at loop entry it
// resolves to an offset and a stride (a cursor) and the whole iteration
// range is proved in bounds from its two ends; an iteration is then a
// switch per instruction over registers in the Env's scratch, with the
// loop variable a Go int64. Everything else — intrinsics, INTEGER
// arithmetic, REAL(I), **, logical values, indirect subscripts, a
// target that is no cursor — is one instruction that calls the
// ordinary lowered node, which reads the loop variable from its frame
// cell. When the proof fails the loop runs its node body instead, which
// reports the bad access when and where it happens.

// tapeOp is what one instruction does; d, a and b name registers.
type tapeOp uint8

const (
	opConst  tapeOp = iota // r[d] = k
	opScalar               // r[d] = the scalar in slot
	opLoad                 // r[d] = cursor ref's element
	opNode                 // r[d] = the ordinary float node n
	opNeg                  // r[d] = -r[d]
	opAdd                  // r[d] = r[a] + r[b]
	opSub                  // r[d] = r[a] - r[b]
	opMul                  // r[d] = r[a] * r[b]
	opDiv                  // r[d] = r[a] / r[b]
	opTrunc                // r[d] = r[d] truncated to an integer
	opStore                // cursor ref's element = r[a]
	opSet                  // the scalar in slot = r[a]
	opStmt                 // the ordinary assignment n, charged with the iteration
	// The four arithmetic operations again, with the right operand
	// cursor ref's element: r[d] = r[a] + (−, ·, /) element.
	opAddC
	opSubC
	opMulC
	opDivC
)

// tapeRegs registers are indexed by a byte, so no index needs a check;
// tapeCursors bounds the array references one tape resolves. A deeper
// expression or a further reference becomes a node instruction.
const (
	tapeRegs    = 256
	tapeCursors = 64
)

// instr is one instruction; op says which of its fields it reads.
type instr struct {
	op      tapeOp
	d, a, b uint8
	ref     uint8
	slot    int
	k       float64
	n       *node
}

// tape is a loop body's register program and the references its
// cursors resolve. It is built once per loop and shared by every Env.
type tape struct {
	code []instr
	refs []tapeRef
}

// tapeRef is one cursor's static half: the element for loop-variable
// value v is base + Σ inv·m + v·step in the array in slot.
type tapeRef struct {
	slot       int
	size, base int64
	step       int64
	inv        []term
}

// cursor is a tapeRef resolved at loop entry: the element for v is
// buf[off + v·step].
type cursor struct {
	buf       []float64
	off, step int64
}

func (c *cursor) at(v int64) *float64 { return &c.buf[c.off+v*c.step] }

// scratch is an Env's reusable working memory, allocated on first use
// (never by a Timing run): the registers and cursors of the tape
// running — at most one runs in an Env at a time, since a tape body
// calls no unit and so runs no loop — and the staging slice of strided
// one-sided transfers.
type scratch struct {
	regs  [tapeRegs]float64
	cur   [tapeCursors]cursor
	stage []float64
}

func (env *Env) work() *scratch {
	if env.scratch == nil {
		env.scratch = new(scratch)
	}
	return env.scratch
}

// straightLine reports whether the loop can run on a tape: its header
// and body call no user function (it is bulkable), its body holds only
// assignments and CONTINUEs, its variable is a local scalar, and every
// scalar the body assigns is a local scalar other than the variable.
func straightLine(x *f77.DoLoop, bulkable bool) bool {
	local := func(s *f77.Symbol) bool {
		return !s.IsArg && !s.IsConst && s.Common == "" && !s.IsArray()
	}
	if !bulkable || !local(x.Var) {
		return false
	}
	for _, s := range x.Body {
		switch a := s.(type) {
		case *f77.ContinueStmt:
		case *f77.Assign:
			if len(a.LHS.Subs) == 0 && (!local(a.LHS.Sym) || a.LHS.Sym == x.Var) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// code returns the loop's tape, building it on first use.
func (l *loop) code() *tape {
	l.tapeOnce.Do(func() { l.tape = l.lw.buildTape(l.src) })
	return l.tape
}

// tapeBuilder compiles one straight-line body.
type tapeBuilder struct {
	lw *Lowered
	v  int // the loop variable's slot
	// assigned holds the scalars the body writes: no cursor may
	// read one.
	assigned map[*f77.Symbol]bool
	t        *tape
}

func (lw *Lowered) buildTape(x *f77.DoLoop) *tape {
	b := &tapeBuilder{lw: lw, v: lw.slots[x.Var], assigned: map[*f77.Symbol]bool{}, t: &tape{}}
	for _, s := range x.Body {
		if a, ok := s.(*f77.Assign); ok && len(a.LHS.Subs) == 0 {
			b.assigned[a.LHS.Sym] = true
		}
	}
	for _, s := range x.Body {
		if a, ok := s.(*f77.Assign); ok {
			b.assign(a)
		}
	}
	return b.t
}

func (b *tapeBuilder) emit(in instr) { b.t.code = append(b.t.code, in) }

// assign compiles LHS = RHS with the conversions of Lowered.assign. A
// target that is no cursor keeps the ordinary statement, uncharged
// (the iteration pays for it), so it still resolves its cell before
// evaluating the right-hand side.
func (b *tapeBuilder) assign(x *f77.Assign) {
	sym := x.LHS.Sym
	ref := -1
	if len(x.LHS.Subs) > 0 {
		if ref = b.cursor(sym, x.LHS.Subs); ref < 0 {
			b.emit(instr{op: opStmt, n: b.lw.assign(x, cost{}).node})
			return
		}
	}
	switch {
	case f77.TypeOf(x.RHS) == f77.TLogical && sym.Type == f77.TLogical:
		b.emit(instr{op: opNode, n: b.lw.unF(boolToF, b.lw.lowerB(x.RHS).node).node})
	case sym.Type == f77.TInteger && f77.TypeOf(x.RHS) != f77.TInteger:
		b.expr(x.RHS, 0)
		b.emit(instr{op: opTrunc})
	default:
		b.expr(x.RHS, 0)
	}
	if ref < 0 {
		b.emit(instr{op: opSet, slot: b.lw.slots[sym]})
	} else {
		b.emit(instr{op: opStore, ref: uint8(ref)})
	}
}

// expr compiles e, evaluated as float64 as Lowered.lowerF does, into
// register d; operands evaluate left then right.
func (b *tapeBuilder) expr(e f77.Expr, d int) {
	if f77.TypeOf(e) == f77.TInteger {
		if v, ok := e.(*f77.IntLit); ok {
			b.emit(instr{op: opConst, d: uint8(d), k: float64(v.Val)})
			return
		}
		b.node(e, d)
		return
	}
	switch x := e.(type) {
	case *f77.RealLit:
		b.emit(instr{op: opConst, d: uint8(d), k: x.Val})
		return
	case *f77.LogLit:
		k := 0.0
		if x.Val {
			k = 1
		}
		b.emit(instr{op: opConst, d: uint8(d), k: k})
		return
	case *f77.VarExpr:
		if x.Sym.IsConst {
			b.emit(instr{op: opConst, d: uint8(d), k: x.Sym.Const})
			return
		}
		if !x.Sym.IsArray() {
			b.emit(instr{op: opScalar, d: uint8(d), slot: b.lw.slots[x.Sym]})
			return
		}
	case *f77.ArrayExpr:
		if ref := b.cursor(x.Sym, x.Subs); ref >= 0 {
			b.emit(instr{op: opLoad, d: uint8(d), ref: uint8(ref)})
			return
		}
	case *f77.Un:
		switch x.Op {
		case f77.OpNeg:
			b.expr(x.X, d)
			b.emit(instr{op: opNeg, d: uint8(d)})
			return
		case f77.OpPlus:
			b.expr(x.X, d)
			return
		}
	case *f77.Bin:
		if op, ok := tapeOps[x.Op]; ok && d+1 < tapeRegs {
			// A right operand that is a cursor is read by the operation.
			if ax, ok := x.R.(*f77.ArrayExpr); ok && f77.TypeOf(ax) != f77.TInteger {
				if ref := b.cursor(ax.Sym, ax.Subs); ref >= 0 {
					b.expr(x.L, d)
					b.emit(instr{op: op + opAddC - opAdd, d: uint8(d), a: uint8(d), ref: uint8(ref)})
					return
				}
			}
			b.expr(x.L, d)
			b.expr(x.R, d+1)
			b.emit(instr{op: op, d: uint8(d), a: uint8(d), b: uint8(d + 1)})
			return
		}
	}
	b.node(e, d)
}

var tapeOps = map[f77.BinOp]tapeOp{f77.OpAdd: opAdd, f77.OpSub: opSub, f77.OpMul: opMul, f77.OpDiv: opDiv}

// node compiles e as one instruction calling its ordinary lowered node.
func (b *tapeBuilder) node(e f77.Expr, d int) {
	b.emit(instr{op: opNode, d: uint8(d), n: b.lw.lowerF(e).node})
}

// cursor returns the index of the cursor for sym(subs), adding it, or
// -1 when the reference cannot be one: no constant layout, a subscript
// that is not coef·scalar + const, more than two terms (the shapes of
// the paper's kernels), a term the body writes or that a dummy or
// COMMON member could alias, or no cursor left.
func (b *tapeBuilder) cursor(sym *f77.Symbol, subs []f77.Expr) int {
	if lay := b.lw.layouts[b.lw.slots[sym]]; lay == nil || lay.Size == 0 {
		return -1
	}
	for _, sub := range subs {
		if _, _, _, ok := b.lw.affine(sub, true); !ok {
			return -1
		}
	}
	r := b.lw.ref(sym, subs, 0)
	if len(r.terms) > 2 || !small(r.base, 1<<32) {
		return -1
	}
	tr := tapeRef{slot: r.slot, size: r.size, base: r.base}
	for _, t := range r.terms {
		if !small(t.m, 1<<30) {
			return -1
		}
		if t.v == b.v {
			tr.step += t.m
			continue
		}
		s := b.lw.syms[t.v]
		if s.IsArg || s.Common != "" || b.assigned[s] {
			return -1
		}
		tr.inv = append(tr.inv, t)
	}
	for i, o := range b.t.refs {
		if o.slot == tr.slot && o.base == tr.base && o.step == tr.step && slices.Equal(o.inv, tr.inv) {
			return i
		}
	}
	if len(b.t.refs) == tapeCursors {
		return -1
	}
	b.t.refs = append(b.t.refs, tr)
	return len(b.t.refs) - 1
}

// small reports |x| ≤ lim: the bound under which the proof's
// arithmetic cannot overflow.
func small(x, lim int64) bool { return -lim <= x && x <= lim }

// prove resolves every cursor for the loop-variable values first and
// last — the ends of the iteration range — and reports whether every
// element between them is in bounds. An offset affine in the variable
// takes its extremes at the ends, so the two checks cover every
// iteration.
func (t *tape) prove(env *Env, s *scratch, first, last int64) bool {
	if !small(first, 1<<30) || !small(last, 1<<30) {
		return false
	}
	for i := range t.refs {
		r := &t.refs[i]
		buf := env.mem[r.slot]
		if buf == nil {
			return false
		}
		off := r.base
		for _, tm := range r.inv {
			x := int64(env.mem[tm.v][0])
			if !small(x, 1<<30) {
				return false
			}
			off += x * tm.m
		}
		size := min(r.size, int64(len(buf)))
		if lo, hi := off+first*r.step, off+last*r.step; lo < 0 || lo >= size || hi < 0 || hi >= size {
			return false
		}
		s.cur[i] = cursor{buf: buf, off: off, step: r.step}
	}
	return true
}

// onTape runs n iterations of a straight-line loop on its tape and
// reports whether it did; false means the entry proof failed and the
// caller runs the node body. With ks nil the i-th iteration has the
// variable at from + i·step, otherwise at from + ks[i]·step (a rank's
// ascending share of a partitioned loop, checked for cancellation
// before each iteration). Each iteration stores the variable's cell and
// charges what the node body charges: the loop overhead and SPMD tax
// plus every assignment's cost.
func (l *loop) onTape(env *Env, from, step, n int64, ks []int64) bool {
	if n == 0 {
		return true
	}
	first, last := from, from+(n-1)*step
	if ks != nil {
		first, last = from+ks[0]*step, from+ks[n-1]*step
	}
	t, s := l.code(), env.work()
	if !t.prove(env, s, first, last) {
		return false
	}
	iter := env.cpu.LoopOverhead + env.spmdTax + l.assigns.at(&env.cpu)
	t.run(env, s, env.mem[l.v], from, step, n, ks, iter)
	return true
}

func (t *tape) run(env *Env, s *scratch, cell []float64, from, step, n int64, ks []int64, iter sim.Time) {
	code := t.code
	for i := int64(0); i < n; i++ {
		v := from + i*step
		if ks != nil {
			env.checkCancelled()
			v = from + ks[i]*step
		}
		cell[0] = float64(v)
		env.pending += iter
		for j := s.exec(code, 0, v, env.mem); j < len(code); j = s.exec(code, j+1, v, env.mem) {
			if in := &code[j]; in.op == opNode {
				s.regs[in.d] = in.n.f(in.n, env)
			} else {
				in.n.s(in.n, env)
			}
		}
	}
}

// exec runs code from j up to the next instruction that calls a node,
// whose index it returns (len(code) at the end). It makes no call
// itself, so its loop keeps its state in machine registers.
func (s *scratch) exec(code []instr, j int, v int64, mem [][]float64) int {
	r := &s.regs
	for ; j < len(code); j++ {
		in := &code[j]
		switch in.op {
		case opConst:
			r[in.d] = in.k
		case opScalar:
			r[in.d] = mem[in.slot][0]
		case opLoad:
			r[in.d] = *s.cur[in.ref%tapeCursors].at(v)
		case opNeg:
			r[in.d] = -r[in.d]
		case opAdd:
			r[in.d] = r[in.a] + r[in.b]
		case opSub:
			r[in.d] = r[in.a] - r[in.b]
		case opMul:
			r[in.d] = r[in.a] * r[in.b]
		case opDiv:
			r[in.d] = r[in.a] / r[in.b]
		case opTrunc:
			r[in.d] = float64(int64(r[in.d]))
		case opStore:
			*s.cur[in.ref%tapeCursors].at(v) = r[in.a]
		case opSet:
			mem[in.slot][0] = r[in.a]
		case opAddC:
			r[in.d] = r[in.a] + *s.cur[in.ref%tapeCursors].at(v)
		case opSubC:
			r[in.d] = r[in.a] - *s.cur[in.ref%tapeCursors].at(v)
		case opMulC:
			r[in.d] = r[in.a] * *s.cur[in.ref%tapeCursors].at(v)
		case opDivC:
			r[in.d] = r[in.a] / *s.cur[in.ref%tapeCursors].at(v)
		default: // opNode, opStmt
			return j
		}
	}
	return j
}

package interp

import (
	"math"
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
// loop variable a Go int64. An INTEGER expression affine in the loop
// variable and in such scalars resolves at loop entry the same way, to
// a value instead of an element, and the one-argument math intrinsics
// are instructions of their own. Everything else — other INTEGER
// arithmetic, **, logical values, indirect subscripts, a target that is
// no cursor — is one instruction that calls the ordinary lowered node,
// which reads the loop variable from its frame cell. When the proof
// fails the loop runs its node body instead, which reports the bad
// access when and where it happens.
//
// A proved tape may also run a strip of iterations per instruction
// (lanes), when no order between iterations can be observed: see
// tapeBuilder.lanes for which tapes may, and tape.disjoint for what
// the loop entry proves before one does.

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
	opAff                  // r[d] = float64 of affine ref's value
	opMath                 // r[d] = laneMath[fn](r[d])
	// The four arithmetic operations again, with the right operand
	// cursor ref's element: r[d] = r[a] + (−, ·, /) element.
	opAddC
	opSubC
	opMulC
	opDivC
	// Lanes only: fold r[b] of every lane, in lane order, into cursor
	// ref's one element, read once and stored once per strip.
	opFoldAdd
	opFoldSub
	opFoldMul
	opFoldDiv
	// Lanes only, a fold T = T ± e·Y with the multiply fused in: fold
	// r[b]·Y (Mul), or X·Y (Dot), of every lane, where X is cursor x
	// and Y cursor y.
	opFoldAddMul
	opFoldSubMul
	opFoldAddDot
	opFoldSubDot
)

// tapeRegs registers are indexed by a byte, so no index needs a check;
// tapeCursors bounds the array references one tape resolves. A deeper
// expression or a further reference becomes a node instruction. A tape
// of R registers may run W = ⌊tapeRegs/R⌋ lanes, register r of lane l
// in regs[r·W + l], when W is at least minLanes.
const (
	tapeRegs    = 256
	tapeCursors = 64
	minLanes    = 8
)

// instr is one instruction; op says which of its fields it reads.
type instr struct {
	op      tapeOp
	d, a, b uint8
	ref     uint8
	x, y    uint8 // a fused fold's cursors
	fn      uint8 // opMath's function
	slot    int
	k       float64
	n       *node
}

// tape is a loop body's register program and the references its
// cursors resolve. It is built once per loop and shared by every Env.
// lanes is how many iterations strip runs per instruction, 1 when the
// tape runs only one at a time, and pairs names the cursors on one
// array, one of them stored, that must touch disjoint elements for
// strip to run.
type tape struct {
	code  []instr
	refs  []tapeRef
	lanes int
	strip []instr
	pairs [][2]uint8
}

// tapeRef is one cursor's static half: the element for loop-variable
// value v is base + Σ inv·m + v·step in the array in slot. A slot of −1
// names no array: the tapeRef is an affine INTEGER value (opAff), and
// base + Σ inv·m + v·step is the value itself.
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

// value is an affine value's cursor (no buf) resolved for v.
func (c *cursor) value(v int64) int64 { return c.off + v*c.step }

// span is the lowest and highest element the cursor touches for
// variable values between first and last.
func (c *cursor) span(first, last int64) (lo, hi int64) {
	lo, hi = c.off+first*c.step, c.off+last*c.step
	return min(lo, hi), max(lo, hi)
}

// scratch is an Env's reusable working memory, allocated on first use
// (never by a Timing run): the registers and cursors of the tape
// running — at most one runs in an Env at a time, since a tape body
// calls no unit and so runs no loop.
type scratch struct {
	regs [tapeRegs]float64
	cur  [tapeCursors]cursor
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
	var starts []int
	for _, s := range x.Body {
		if a, ok := s.(*f77.Assign); ok {
			starts = append(starts, len(b.t.code))
			b.assign(a)
		}
	}
	b.t.lanes = 1
	b.lanes(starts)
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
		if c, ok := b.constant(e); ok {
			b.emit(instr{op: opConst, d: uint8(d), k: float64(c)})
			return
		}
		if ref := b.affine(e); ref >= 0 {
			b.emit(instr{op: opAff, d: uint8(d), ref: uint8(ref)})
			return
		}
		// An INTEGER intrinsic truncates its float value (lowerI).
		if c, ok := e.(*f77.CallExpr); ok && b.call(c, d) {
			b.emit(instr{op: opTrunc, d: uint8(d)})
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
	case *f77.CallExpr:
		if b.call(x, d) {
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

// laneMath are the one-argument intrinsics opMath calls, by its fn:
// the functions Lowered.intrinsic's nodes call.
var (
	laneMath   = [...]func(float64) float64{math.Abs, math.Sqrt, math.Exp, math.Log, math.Sin, math.Cos, math.Tan, math.Atan, math.Round}
	laneMathOf = map[string]uint8{"ABS": 0, "IABS": 0, "SQRT": 1, "EXP": 2, "LOG": 3, "ALOG": 3,
		"SIN": 4, "COS": 5, "TAN": 6, "ATAN": 7, "NINT": 8}
)

// call compiles the float value of an intrinsic call of one argument
// that is a conversion to REAL (the argument's value, as
// Lowered.intrinsic has it) or one of laneMath, into register d, and
// reports whether it did.
func (b *tapeBuilder) call(x *f77.CallExpr, d int) bool {
	if !x.Intrinsic || len(x.Args) != 1 {
		return false
	}
	switch fn, ok := laneMathOf[x.Name]; {
	case ok:
		b.expr(x.Args[0], d)
		b.emit(instr{op: opMath, d: uint8(d), fn: fn})
	case x.Name == "REAL" || x.Name == "FLOAT" || x.Name == "DBLE":
		b.expr(x.Args[0], d)
	default:
		return false
	}
	return true
}

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
		if b.aliased(t.v) || b.assigned[b.lw.syms[t.v]] {
			return -1
		}
		tr.inv = append(tr.inv, t)
	}
	return b.add(tr)
}

// add returns the index of the tape's ref equal to tr, adding it, or -1
// when the tape has no cursor left.
func (b *tapeBuilder) add(tr tapeRef) int {
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

// affine returns the index of the value ref (slot −1) for the INTEGER
// expression e, adding it, or -1 when e is not affine in the loop
// variable and in local scalars the body never writes, with the
// bounds a cursor has. int64 addition and multiplication wrap as a
// ring, so base + Σ inv·m + v·step is the value the nodes compute
// term by term, bit for bit.
func (b *tapeBuilder) affine(e f77.Expr) int {
	tr := tapeRef{slot: -1}
	if !b.affineInto(&tr, e, 1) || !small(tr.base, 1<<32) || !small(tr.step, 1<<30) {
		return -1
	}
	for _, t := range tr.inv {
		if !small(t.m, 1<<30) {
			return -1
		}
	}
	return b.add(tr)
}

// affineInto adds k·e to tr, reporting false when e is not affine.
func (b *tapeBuilder) affineInto(tr *tapeRef, e f77.Expr, k int64) bool {
	switch x := e.(type) {
	case *f77.IntLit:
		tr.base += k * x.Val
		return true
	case *f77.VarExpr:
		if x.Sym.IsConst {
			tr.base += k * int64(x.Sym.Const)
			return true
		}
		slot := b.lw.slots[x.Sym]
		switch {
		case x.Sym.IsArray() || x.Sym.Type != f77.TInteger:
			return false
		case slot == b.v:
			tr.step += k
			return true
		case b.aliased(slot) || b.assigned[x.Sym]:
			return false
		}
		for i := range tr.inv {
			if tr.inv[i].v == slot {
				tr.inv[i].m += k
				return true
			}
		}
		tr.inv = append(tr.inv, term{v: slot, m: k})
		return true
	case *f77.Un:
		switch x.Op {
		case f77.OpNeg:
			return b.affineInto(tr, x.X, -k)
		case f77.OpPlus:
			return b.affineInto(tr, x.X, k)
		}
	case *f77.Bin:
		if f77.TypeOf(x.L) != f77.TInteger || f77.TypeOf(x.R) != f77.TInteger {
			return false
		}
		switch x.Op {
		case f77.OpAdd:
			return b.affineInto(tr, x.L, k) && b.affineInto(tr, x.R, k)
		case f77.OpSub:
			return b.affineInto(tr, x.L, k) && b.affineInto(tr, x.R, -k)
		case f77.OpMul:
			if c, ok := b.constant(x.L); ok {
				return b.affineInto(tr, x.R, k*c)
			}
			if c, ok := b.constant(x.R); ok {
				return b.affineInto(tr, x.L, k*c)
			}
		}
	}
	return false
}

// constant reports whether the INTEGER expression e is affine with no
// variable term, and its value.
func (b *tapeBuilder) constant(e f77.Expr) (int64, bool) {
	var tr tapeRef
	if !b.affineInto(&tr, e, 1) || tr.step != 0 || len(tr.inv) != 0 {
		return 0, false
	}
	return tr.base, true
}

// small reports |x| ≤ lim: the bound under which the proof's
// arithmetic cannot overflow.
func small(x, lim int64) bool { return -lim <= x && x <= lim }

// lanes decides whether the tape, whose statements start at starts,
// may run a strip of iterations per instruction, and compiles its
// strip. Running every instruction over the strip before the next
// reorders the accesses of different iterations, so a tape may only
// when that cannot be observed:
//   - it calls no node and assigns no scalar, and reads no scalar that
//     could change under it: the loop variable, a dummy, a COMMON
//     member;
//   - an element stored in every iteration (a cursor of step 0) is read
//     by no other iteration, unless its statement is a fold;
//   - no stored array could alias another array of the tape, as a
//     dummy or COMMON member could; two cursors on one array, one of
//     them stored, go to pairs, whose elements the loop entry proves
//     apart (tape.disjoint);
//   - its registers leave at least minLanes lanes.
//
// A fold is a statement T = T op e with T a cursor of step 0 that the
// tape loads once, first in the statement, and stores once, last:
// strip computes e in every lane and folds the lanes into T in lane
// order, each op rounding on its own, so it rounds as the iterations
// one at a time do.
func (b *tapeBuilder) lanes(starts []int) {
	t := b.t
	if len(t.code) == 0 {
		return // a body of CONTINUEs: no registers to divide into lanes
	}
	loads, stores := make([]int, len(t.refs)), make([]int, len(t.refs))
	for _, in := range t.code {
		switch in.op {
		case opNode, opStmt, opSet:
			return
		case opScalar:
			if in.slot == b.v || b.aliased(in.slot) {
				return
			}
		case opLoad, opAddC, opSubC, opMulC, opDivC:
			loads[in.ref]++
		case opStore:
			stores[in.ref]++
		}
	}
	var (
		strip  []instr
		pairs  [][2]uint8
		folded = make([]bool, len(t.refs))
	)
	for i, start := range starts {
		end := len(t.code)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		stmt := t.code[start:end]
		fold, ok := foldOf(stmt, t.refs)
		if !ok || loads[fold.ref] != 1 || stores[fold.ref] != 1 {
			strip = append(strip, stmt...)
			continue
		}
		folded[fold.ref] = true
		n := len(stmt)
		e := stmt[1 : n-2 : n-2] // appending copies: t.code stays as it is
		if op := stmt[n-2]; op.op >= opAddC {
			e = append(e, instr{op: opLoad, d: 1, ref: op.ref})
		}
		e, fold = fuse(e, fold)
		strip = append(strip, e...)
		strip = append(strip, fold)
	}
	for i, r := range t.refs {
		if r.step == 0 && stores[i] > 0 && loads[i] > 0 && !folded[i] {
			return
		}
		for j := i + 1; j < len(t.refs); j++ {
			if stores[i] == 0 && stores[j] == 0 || r.slot < 0 || t.refs[j].slot < 0 {
				continue
			}
			if r.slot == t.refs[j].slot {
				pairs = append(pairs, [2]uint8{uint8(i), uint8(j)})
			} else if b.aliased(r.slot) || b.aliased(t.refs[j].slot) {
				return
			}
		}
	}
	regs := 0
	for _, in := range strip {
		regs = max(regs, int(in.d)+1, int(in.a)+1, int(in.b)+1)
	}
	if w := tapeRegs / regs; w >= minLanes {
		t.lanes, t.strip, t.pairs = w, strip, pairs
	}
}

// fuse folds the multiply that ends a fold's e, e' · Y with Y a cursor,
// into the fold: T ± e'·Y, or T ± X·Y when e' is the cursor X alone.
// The fused fold rounds each product before adding it, as the multiply
// did.
func fuse(e []instr, fold instr) ([]instr, instr) {
	n := len(e)
	if fold.op != opFoldAdd && fold.op != opFoldSub || n == 0 {
		return e, fold
	}
	mul := e[n-1]
	if mul.op != opMulC || mul.d != 1 || mul.a != 1 {
		return e, fold
	}
	fold.y = mul.ref
	if n == 2 && e[0].op == opLoad && e[0].d == 1 {
		fold.op += opFoldAddDot - opFoldAdd
		fold.x = e[0].ref
		return nil, fold
	}
	fold.op += opFoldAddMul - opFoldAdd
	return e[:n-1], fold
}

// aliased reports whether the array in slot may share storage with
// another array: a dummy or a COMMON member.
func (b *tapeBuilder) aliased(slot int) bool {
	sym := b.lw.syms[slot]
	return sym.IsArg || sym.Common != ""
}

// foldOf reports whether stmt is the code of a fold T = T op e — T's
// load into register 0 first, e into registers from 1 (or a cursor
// operand), the op, T's store last — and returns its fold instruction.
func foldOf(stmt []instr, refs []tapeRef) (instr, bool) {
	n := len(stmt)
	if n < 3 {
		return instr{}, false
	}
	load, op, store := stmt[0], stmt[n-2], stmt[n-1]
	if load.op != opLoad || load.d != 0 || store.op != opStore || store.ref != load.ref || store.a != 0 ||
		refs[load.ref].step != 0 || op.d != 0 || op.a != 0 {
		return instr{}, false
	}
	var kind tapeOp
	switch {
	case op.op >= opAdd && op.op <= opDiv && op.b == 1:
		kind = op.op - opAdd
	case op.op >= opAddC && op.op <= opDivC:
		kind = op.op - opAddC
	default:
		return instr{}, false
	}
	// e compiles into registers from 1 and reads only what it wrote
	// there; an instruction between that writes register 0 makes the
	// statement (T op x) op e, no fold.
	for _, in := range stmt[1 : n-2] {
		if in.d == 0 {
			return instr{}, false
		}
	}
	return instr{op: opFoldAdd + kind, b: 1, ref: load.ref}, true
}

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
		var buf []float64
		if r.slot >= 0 {
			if buf = env.mem[r.slot]; buf == nil {
				return false
			}
		}
		off := r.base
		for _, tm := range r.inv {
			x := int64(env.mem[tm.v][0])
			if !small(x, 1<<30) {
				return false
			}
			off += x * tm.m
		}
		if r.slot < 0 {
			s.cur[i] = cursor{off: off, step: r.step}
			continue
		}
		size := min(r.size, int64(len(buf)))
		if lo, hi := off+first*r.step, off+last*r.step; lo < 0 || lo >= size || hi < 0 || hi >= size {
			return false
		}
		s.cur[i] = cursor{buf: buf, off: off, step: r.step}
	}
	return true
}

// disjoint reports whether each of the tape's pairs of cursors touches
// disjoint elements for variable values between first and last.
func (t *tape) disjoint(s *scratch, first, last int64) bool {
	for _, p := range t.pairs {
		alo, ahi := s.cur[p[0]%tapeCursors].span(first, last)
		blo, bhi := s.cur[p[1]%tapeCursors].span(first, last)
		if alo <= bhi && blo <= ahi {
			return false
		}
	}
	return true
}

// onTape runs n iterations of a straight-line loop on its tape and
// reports whether it did; false means the entry proof failed and the
// caller runs the node body. The i-th iteration has the variable at
// from + i·step; a rank's share of a partitioned loop, block or cyclic,
// is such a progression. Like the node body, it polls for cancellation
// before each iteration (before each strip on lanes). Each iteration
// charges what the node body charges: the loop overhead and SPMD tax
// plus every assignment's cost. A tape with lanes whose pairs the entry
// proves disjoint runs in strips; otherwise each iteration also stores
// the variable's cell, which node instructions read.
func (l *loop) onTape(env *Env, from, step, n int64) bool {
	if n == 0 {
		return true
	}
	first, last := from, from+(n-1)*step
	t, s := l.code(), env.work()
	if !t.prove(env, s, first, last) {
		return false
	}
	iter := env.cpu.LoopOverhead + env.spmdTax + l.assigns.at(&env.cpu)
	if t.lanes > 1 && t.disjoint(s, first, last) {
		t.runStrips(env, s, from, step, n, iter)
	} else {
		t.run(env, s, env.mem[l.v], from, step, n, iter)
	}
	return true
}

// runStrips runs n iterations, the i-th with the variable at from +
// i·step, in strips of up to t.lanes: strip's instructions one after
// another, each over every iteration of the strip. A strip charges
// its iterations in one add and polls for cancellation once.
func (t *tape) runStrips(env *Env, s *scratch, from, step, n int64, iter sim.Time) {
	w := int64(t.lanes)
	for i := int64(0); i < n; i += w {
		env.checkCancelled()
		m := min(w, n-i)
		env.pending += iter * sim.Time(m)
		s.execLanes(t.strip, int(w), int(m), from+i*step, step, env.mem)
	}
}

func (t *tape) run(env *Env, s *scratch, cell []float64, from, step, n int64, iter sim.Time) {
	code := t.code
	for i := int64(0); i < n; i++ {
		env.checkCancelled()
		v := from + i*step
		cell[0] = float64(v)
		env.pending += iter
		for j := s.exec(code, 0, v, env.mem); j < len(code); j = s.exec(code, j+1, v, env.mem) {
			switch in := &code[j]; in.op {
			case opNode:
				s.regs[in.d] = in.n.f(in.n, env)
			case opMath:
				s.regs[in.d] = laneMath[in.fn%uint8(len(laneMath))](s.regs[in.d])
			default:
				in.n.s(in.n, env)
			}
		}
	}
}

// exec runs code from j up to the next instruction that calls a node
// or a math function, whose index it returns (len(code) at the end). It
// makes no call itself, so its loop keeps its state in machine
// registers.
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
		case opAff:
			r[in.d] = float64(s.cur[in.ref%tapeCursors].value(v))
		default: // opNode, opStmt, opMath
			return j
		}
	}
	return j
}

// lane is register r's lanes 0..m-1 when the tape runs w lanes.
func (s *scratch) lane(r uint8, w, m int) []float64 { return s.regs[int(r)*w:][:m] }

// stride is a cursor's buffer, its first element in a strip whose
// variable values run v, v+step, …, and the distance from one lane's
// element to the next. A lane loop indexes the buffer it returns, held
// in a local, which stores to the registers cannot change.
func (c *cursor) stride(v, step int64) (buf []float64, e, de int64) {
	return c.buf, c.off + v*c.step, step * c.step
}

// execLanes runs code over m lanes of w, lane l with the variable at
// v + l·step. It makes no call but opMath's, one per lane in lane
// order; an operation with a cursor operand reads the cursor in its own
// lane loop. A store to a cursor of step 0 that is no fold writes only
// the last lane, the value every lane's store would leave.
func (s *scratch) execLanes(code []instr, w, m int, v, step int64, mem [][]float64) {
	for j := range code {
		in := &code[j]
		d := s.lane(in.d, w, m)
		switch in.op {
		case opConst:
			for l := range d {
				d[l] = in.k
			}
		case opScalar:
			x := mem[in.slot][0]
			for l := range d {
				d[l] = x
			}
		case opLoad:
			buf, e, de := s.cur[in.ref%tapeCursors].stride(v, step)
			for l := range d {
				d[l] = buf[e]
				e += de
			}
		case opNeg:
			for l := range d {
				d[l] = -d[l]
			}
		case opAdd:
			a, b := s.lane(in.a, w, m), s.lane(in.b, w, m)
			for l, x := range a {
				d[l] = x + b[l]
			}
		case opSub:
			a, b := s.lane(in.a, w, m), s.lane(in.b, w, m)
			for l, x := range a {
				d[l] = x - b[l]
			}
		case opMul:
			a, b := s.lane(in.a, w, m), s.lane(in.b, w, m)
			for l, x := range a {
				d[l] = x * b[l]
			}
		case opDiv:
			a, b := s.lane(in.a, w, m), s.lane(in.b, w, m)
			for l, x := range a {
				d[l] = x / b[l]
			}
		case opTrunc:
			for l := range d {
				d[l] = float64(int64(d[l]))
			}
		case opAff:
			_, e, de := s.cur[in.ref%tapeCursors].stride(v, step)
			for l := range d {
				d[l] = float64(e)
				e += de
			}
		case opMath:
			f := laneMath[in.fn%uint8(len(laneMath))]
			for l, x := range d {
				d[l] = f(x)
			}
		case opStore:
			a, c := s.lane(in.a, w, m), &s.cur[in.ref%tapeCursors]
			if c.step == 0 {
				*c.at(v) = a[m-1]
				continue
			}
			buf, e, de := c.stride(v, step)
			for _, x := range a {
				buf[e] = x
				e += de
			}
		case opAddC:
			a := s.lane(in.a, w, m)
			buf, e, de := s.cur[in.ref%tapeCursors].stride(v, step)
			for l, x := range a {
				d[l] = x + buf[e]
				e += de
			}
		case opSubC:
			a := s.lane(in.a, w, m)
			buf, e, de := s.cur[in.ref%tapeCursors].stride(v, step)
			for l, x := range a {
				d[l] = x - buf[e]
				e += de
			}
		case opMulC:
			a := s.lane(in.a, w, m)
			buf, e, de := s.cur[in.ref%tapeCursors].stride(v, step)
			for l, x := range a {
				d[l] = x * buf[e]
				e += de
			}
		case opDivC:
			a := s.lane(in.a, w, m)
			buf, e, de := s.cur[in.ref%tapeCursors].stride(v, step)
			for l, x := range a {
				d[l] = x / buf[e]
				e += de
			}
		// A fold's element is read and stored once; each lane's op
		// rounds on its own, a product computed by an earlier
		// instruction or converted explicitly included: the Go spec
		// lets no compiler fuse a float64(x*y) into a multiply-add.
		case opFoldAdd:
			b, p := s.lane(in.b, w, m), s.cur[in.ref%tapeCursors].at(v)
			acc := *p
			for _, x := range b {
				acc += x
			}
			*p = acc
		case opFoldSub:
			b, p := s.lane(in.b, w, m), s.cur[in.ref%tapeCursors].at(v)
			acc := *p
			for _, x := range b {
				acc -= x
			}
			*p = acc
		case opFoldMul:
			b, p := s.lane(in.b, w, m), s.cur[in.ref%tapeCursors].at(v)
			acc := *p
			for _, x := range b {
				acc *= x
			}
			*p = acc
		case opFoldDiv:
			b, p := s.lane(in.b, w, m), s.cur[in.ref%tapeCursors].at(v)
			acc := *p
			for _, x := range b {
				acc /= x
			}
			*p = acc
		case opFoldAddMul:
			b, p := s.lane(in.b, w, m), s.cur[in.ref%tapeCursors].at(v)
			yb, e, de := s.cur[in.y%tapeCursors].stride(v, step)
			acc := *p
			for _, x := range b {
				acc += float64(x * yb[e])
				e += de
			}
			*p = acc
		case opFoldSubMul:
			b, p := s.lane(in.b, w, m), s.cur[in.ref%tapeCursors].at(v)
			yb, e, de := s.cur[in.y%tapeCursors].stride(v, step)
			acc := *p
			for _, x := range b {
				acc -= float64(x * yb[e])
				e += de
			}
			*p = acc
		case opFoldAddDot:
			p := s.cur[in.ref%tapeCursors].at(v)
			xb, ex, dx := s.cur[in.x%tapeCursors].stride(v, step)
			yb, ey, dy := s.cur[in.y%tapeCursors].stride(v, step)
			acc := *p
			for range m {
				acc += float64(xb[ex] * yb[ey])
				ex += dx
				ey += dy
			}
			*p = acc
		case opFoldSubDot:
			p := s.cur[in.ref%tapeCursors].at(v)
			xb, ex, dx := s.cur[in.x%tapeCursors].stride(v, step)
			yb, ey, dy := s.cur[in.y%tapeCursors].stride(v, step)
			acc := *p
			for range m {
				acc -= float64(xb[ex] * yb[ey])
				ex += dx
				ey += dy
			}
			*p = acc
		}
	}
}

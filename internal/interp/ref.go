package interp

import (
	"vbuscluster/internal/f77"
)

// ref is a lowered array reference. For an array with a constant
// layout the column-major offset Σ (sub_i − low_i)·mult_i is regrouped
// at lowering into base + Σ value_k·m_k: the lower bounds and every
// constant part of a subscript fold into base, and a subscript of the
// shape coef·var + const contributes its variable's slot with the
// stride already multiplied in. Bounds are checked on the linear
// offset against the element count, not per dimension. Adjustable and
// assumed-size dummies have no constant layout; they take the generic
// path that evaluates the declared bounds in the current CALL frame on
// every access.
type ref struct {
	slot int
	name string
	line int // reported by failures: the statement's for a target or an actual, 0 inside expressions

	size  int64 // element count; 0 selects the generic per-frame path
	base  int64
	terms []term

	subs []iexpr // generic path: the subscripts as written
	ext  []dimFn // generic path: the declared bounds
}

// term is one run-time contribution to the offset: the scalar in slot v
// (when fn is absent) or the value of fn, times m.
type term struct {
	v  int
	fn iexpr
	m  int64
}

func (lw *Lowered) ref(sym *f77.Symbol, subs []f77.Expr, line int) *ref {
	slot := lw.slots[sym]
	r := &ref{slot: slot, name: sym.Name, line: line}
	if lay := lw.layouts[slot]; lay != nil && lay.Size > 0 {
		r.size = lay.Size
		for i, sub := range subs {
			mult := lay.Mult[i]
			r.base -= lay.Lows[i] * mult
			if v, coef, off, ok := lw.affine(sub, true); ok {
				r.base += off * mult
				if v >= 0 {
					r.terms = append(r.terms, term{v: v, m: coef * mult})
				}
			} else {
				r.terms = append(r.terms, term{fn: lw.lowerI(sub), m: mult})
			}
		}
		return r
	}
	for i, d := range sym.Dims {
		var df dimFn
		if d.Low != nil {
			df.low = lw.lowerI(d.Low)
		}
		if d.High != nil {
			df.high = lw.lowerI(d.High)
		}
		r.ext = append(r.ext, df)
		r.subs = append(r.subs, lw.lowerI(subs[i]))
	}
	return r
}

// affine recognises an integer evaluation of the shape coef·var + off
// (v < 0: the constant off alone). A bare scalar qualifies whatever its
// type — reading it as an integer truncates the cell either way — but
// arithmetic only over INTEGER operands, where it is exact.
func (lw *Lowered) affine(e f77.Expr, top bool) (v int, coef, off int64, ok bool) {
	if !top && f77.TypeOf(e) != f77.TInteger {
		return -1, 0, 0, false
	}
	switch x := e.(type) {
	case *f77.IntLit:
		return -1, 0, x.Val, true
	case *f77.VarExpr:
		if x.Sym.IsConst {
			return -1, 0, int64(x.Sym.Const), true
		}
		if !x.Sym.IsArray() {
			return lw.slots[x.Sym], 1, 0, true
		}
	case *f77.Bin:
		lv, lc, lo, lok := lw.affine(x.L, false)
		rv, rc, ro, rok := lw.affine(x.R, false)
		if !lok || !rok {
			break
		}
		switch x.Op {
		case f77.OpSub:
			rc, ro = -rc, -ro
			fallthrough
		case f77.OpAdd:
			if lv < 0 {
				return rv, rc, lo + ro, true
			}
			if rv < 0 {
				return lv, lc, lo + ro, true
			}
		case f77.OpMul:
			if lv < 0 {
				return rv, lo * rc, lo * ro, true
			}
			if rv < 0 {
				return lv, lc * ro, lo * ro, true
			}
		}
	}
	return -1, 0, 0, false
}

// locate resolves the reference to its backing cells and checked
// offset — the one path every shape can take; load and store add
// straight-line forms of it for the common shapes.
func (r *ref) locate(env *Env) ([]float64, int64) {
	buf := env.mem[r.slot]
	if buf == nil {
		buf = env.storage(r.slot, r.line)
	}
	idx, size := r.base, r.size
	if size > 0 {
		for i := range r.terms {
			if t := &r.terms[i]; t.fn.node != nil {
				idx += t.fn.eval(env) * t.m
			} else {
				idx += int64(env.mem[t.v][0]) * t.m
			}
		}
	} else {
		mult := int64(1)
		for i, d := range r.ext {
			low := int64(1)
			if d.low.node != nil {
				low = d.low.eval(env)
			}
			idx += (r.subs[i].eval(env) - low) * mult
			if d.high.node != nil {
				mult *= d.high.eval(env) - low + 1
			}
		}
		size = int64(len(buf))
	}
	if idx < 0 || idx >= size {
		env.fail(r.line, "%s subscript out of bounds: linear index %d, size %d", r.name, idx, size)
	}
	return buf, idx
}

// checked is the slow half of the straight-line forms: the cells were
// missing (a lazily deferred array, allocated now) or idx is out of
// bounds (reported).
func (r *ref) checked(env *Env, idx int64) []float64 {
	buf := env.storage(r.slot, r.line)
	if idx < 0 || idx >= r.size {
		env.fail(r.line, "%s subscript out of bounds: linear index %d, size %d", r.name, idx, r.size)
	}
	return buf
}

// slotTerms returns the terms when there are one or two and each reads
// a scalar slot — the shapes with straight-line forms (every array
// reference of the paper's kernels).
func (r *ref) slotTerms() []term {
	if r.size == 0 || len(r.terms) == 0 || len(r.terms) > 2 {
		return nil
	}
	for _, t := range r.terms {
		if t.fn.node != nil {
			return nil
		}
	}
	return r.terms
}

// refNode fills in what the straight-line forms read: one or two slot
// terms, or none of them for the general path through r.locate.
func (lw *Lowered) refNode(r *ref) (n *node, terms int) {
	n = lw.newNode()
	n.r, n.slot, n.size, n.base = r, r.slot, uint64(r.size), r.base
	t := r.slotTerms()
	if len(t) > 0 {
		n.v0, n.m0 = t[0].v, t[0].m
	}
	if len(t) > 1 {
		n.v1, n.m1 = t[1].v, t[1].m
	}
	return n, len(t)
}

// load lowers reading the referenced element.
func (lw *Lowered) load(r *ref) fexpr {
	n, terms := lw.refNode(r)
	n.f = [...]func(*node, *Env) float64{loadAny, load1, load2}[terms]
	return fexpr{n}
}

func load1(n *node, env *Env) float64 {
	idx := n.base + int64(env.mem[n.v0][0])*n.m0
	buf := env.mem[n.slot]
	if uint64(idx) >= n.size || buf == nil {
		buf = n.r.checked(env, idx)
	}
	return buf[idx]
}

func load2(n *node, env *Env) float64 {
	idx := n.base + int64(env.mem[n.v0][0])*n.m0 + int64(env.mem[n.v1][0])*n.m1
	buf := env.mem[n.slot]
	if uint64(idx) >= n.size || buf == nil {
		buf = n.r.checked(env, idx)
	}
	return buf[idx]
}

func loadAny(n *node, env *Env) float64 {
	buf, idx := n.r.locate(env)
	return buf[idx]
}

// store lowers an assignment to the referenced element: charge c,
// resolve the cell, evaluate rhs, store.
func (lw *Lowered) store(r *ref, c cost, rhs fexpr) stmtFn {
	n, terms := lw.refNode(r)
	n.c, n.x = c, rhs.node
	n.s = [...]func(*node, *Env) ctrl{storeAny, store1, store2}[terms]
	return stmtFn{n}
}

func store1(n *node, env *Env) ctrl {
	env.pending += n.c.at(&env.cpu)
	idx := n.base + int64(env.mem[n.v0][0])*n.m0
	buf := env.mem[n.slot]
	if uint64(idx) >= n.size || buf == nil {
		buf = n.r.checked(env, idx)
	}
	buf[idx] = n.x.f(n.x, env)
	return ctrlNormal
}

func store2(n *node, env *Env) ctrl {
	env.pending += n.c.at(&env.cpu)
	idx := n.base + int64(env.mem[n.v0][0])*n.m0 + int64(env.mem[n.v1][0])*n.m1
	buf := env.mem[n.slot]
	if uint64(idx) >= n.size || buf == nil {
		buf = n.r.checked(env, idx)
	}
	buf[idx] = n.x.f(n.x, env)
	return ctrlNormal
}

func storeAny(n *node, env *Env) ctrl {
	env.pending += n.c.at(&env.cpu)
	buf, idx := n.r.locate(env)
	buf[idx] = n.x.f(n.x, env)
	return ctrlNormal
}

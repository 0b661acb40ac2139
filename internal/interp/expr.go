package interp

import (
	"math"
	"strings"

	"vbuscluster/internal/f77"
)

// Lowered expressions: one node per expression node, already
// specialised by its static type, so nothing asks for a type at run
// time. Fortran semantics are fixed here: operands evaluate left then
// right, INTEGER subexpressions use truncating int64 arithmetic, and no
// operation puts a multiply and an add in one Go expression (the
// compiler may contract that into a fused multiply-add on some targets,
// which rounds once instead of twice and would change result bits).

// unF and binF build the nodes of the common arithmetic kinds.
func (lw *Lowered) unF(f func(*node, *Env) float64, x *node) fexpr {
	n := lw.newNode()
	n.f, n.x = f, x
	return fexpr{n}
}

func (lw *Lowered) binF(f func(*node, *Env) float64, l, r fexpr) fexpr {
	n := lw.newNode()
	n.f, n.x, n.y = f, l.node, r.node
	return fexpr{n}
}

func (lw *Lowered) unI(i func(*node, *Env) int64, x *node) iexpr {
	n := lw.newNode()
	n.i, n.x = i, x
	return iexpr{n}
}

func (lw *Lowered) binI(i func(*node, *Env) int64, l, r iexpr) iexpr {
	n := lw.newNode()
	n.i, n.x, n.y = i, l.node, r.node
	return iexpr{n}
}

func (lw *Lowered) constF(c float64) fexpr {
	n := lw.newNode()
	n.f, n.k = litF, c
	return fexpr{n}
}

func (lw *Lowered) constI(c int64) iexpr {
	n := lw.newNode()
	n.i, n.n = litI, c
	return iexpr{n}
}

func litF(n *node, _ *Env) float64      { return n.k }
func scalarF(n *node, env *Env) float64 { return env.mem[n.slot][0] }
func intToF(n *node, env *Env) float64  { return float64(n.x.i(n.x, env)) }
func negF(n *node, env *Env) float64    { return -n.x.f(n.x, env) }
func addF(n *node, env *Env) float64    { a := n.x.f(n.x, env); return a + n.y.f(n.y, env) }
func subF(n *node, env *Env) float64    { a := n.x.f(n.x, env); return a - n.y.f(n.y, env) }
func mulF(n *node, env *Env) float64    { a := n.x.f(n.x, env); return a * n.y.f(n.y, env) }
func divF(n *node, env *Env) float64    { a := n.x.f(n.x, env); return a / n.y.f(n.y, env) }

func litI(n *node, _ *Env) int64      { return n.n }
func scalarI(n *node, env *Env) int64 { return int64(env.mem[n.slot][0]) }
func fToInt(n *node, env *Env) int64  { return int64(n.x.f(n.x, env)) }
func negI(n *node, env *Env) int64    { return -n.x.i(n.x, env) }
func addI(n *node, env *Env) int64    { a := n.x.i(n.x, env); return a + n.y.i(n.y, env) }
func subI(n *node, env *Env) int64    { a := n.x.i(n.x, env); return a - n.y.i(n.y, env) }
func mulI(n *node, env *Env) int64    { a := n.x.i(n.x, env); return a * n.y.i(n.y, env) }
func powI(n *node, env *Env) int64    { a := n.x.i(n.x, env); return intPow(env, a, n.y.i(n.y, env)) }

func divI(n *node, env *Env) int64 {
	a, b := n.x.i(n.x, env), n.y.i(n.y, env)
	if b == 0 {
		env.fail(0, "integer division by zero")
	}
	return a / b
}

// lowerF lowers an expression evaluated as float64.
func (lw *Lowered) lowerF(e f77.Expr) fexpr {
	if f77.TypeOf(e) == f77.TInteger {
		if v, ok := e.(*f77.IntLit); ok {
			return lw.constF(float64(v.Val))
		}
		return lw.unF(intToF, lw.lowerI(e).node)
	}
	switch x := e.(type) {
	case *f77.RealLit:
		return lw.constF(x.Val)
	case *f77.LogLit:
		if x.Val {
			return lw.constF(1)
		}
		return lw.constF(0)
	case *f77.VarExpr:
		if x.Sym.IsConst {
			return lw.constF(x.Sym.Const)
		}
		slot := lw.slots[x.Sym]
		if x.Sym.IsArray() { // a whole array named where a scalar is read
			return lw.fn(func(env *Env) float64 { return env.storage(slot, 0)[0] })
		}
		n := lw.newNode()
		n.f, n.slot = scalarF, slot
		return fexpr{n}
	case *f77.ArrayExpr:
		return lw.load(lw.ref(x.Sym, x.Subs, 0))
	case *f77.Un:
		switch x.Op {
		case f77.OpNeg:
			return lw.unF(negF, lw.lowerF(x.X).node)
		case f77.OpPlus:
			return lw.lowerF(x.X)
		}
		return lw.fn(func(env *Env) float64 {
			env.fail(0, "logical unary in arithmetic context")
			return 0
		})
	case *f77.Bin:
		l := lw.lowerF(x.L)
		if x.Op == f77.OpPow && f77.TypeOf(x.R) == f77.TInteger {
			n := lw.lowerI(x.R)
			return lw.fn(func(env *Env) float64 { a := l.eval(env); return intPowF(a, n.eval(env)) })
		}
		r := lw.lowerF(x.R)
		switch x.Op {
		case f77.OpAdd:
			return lw.binF(addF, l, r)
		case f77.OpSub:
			return lw.binF(subF, l, r)
		case f77.OpMul:
			return lw.binF(mulF, l, r)
		case f77.OpDiv:
			return lw.binF(divF, l, r)
		case f77.OpPow:
			return lw.fn(func(env *Env) float64 { a := l.eval(env); return math.Pow(a, r.eval(env)) })
		}
		return lw.fn(func(env *Env) float64 {
			l.eval(env)
			r.eval(env)
			env.fail(0, "relational operator in arithmetic context")
			return 0
		})
	case *f77.CallExpr:
		return lw.call(x)
	}
	return lw.fn(func(env *Env) float64 {
		env.fail(0, "unhandled expression %T", e)
		return 0
	})
}

func intPowF(base float64, exp int64) float64 {
	if exp < 0 {
		return 1 / intPowF(base, -exp)
	}
	out := 1.0
	for ; exp > 0; exp >>= 1 {
		if exp&1 == 1 {
			out *= base
		}
		base *= base
	}
	return out
}

// intPow is INTEGER ** INTEGER. A negative exponent is 1/(base**|exp|)
// in truncating integer division: 0 unless base is ±1, and a division
// by zero for base 0.
func intPow(env *Env, base, exp int64) int64 {
	if exp < 0 {
		switch base {
		case 0:
			env.fail(0, "integer division by zero")
		case 1:
			return 1
		case -1:
			return 1 - 2*(exp&1)
		}
		return 0
	}
	out := int64(1)
	for i := int64(0); i < exp; i++ {
		out *= base
	}
	return out
}

var intOps = map[f77.BinOp]func(*node, *Env) int64{
	f77.OpAdd: addI, f77.OpSub: subI, f77.OpMul: mulI, f77.OpDiv: divI, f77.OpPow: powI,
}

// lowerI lowers an integer-valued evaluation with truncating division.
// Non-integer operands are evaluated as floats and truncated.
func (lw *Lowered) lowerI(e f77.Expr) iexpr {
	switch x := e.(type) {
	case *f77.IntLit:
		return lw.constI(x.Val)
	case *f77.RealLit:
		return lw.constI(int64(x.Val))
	case *f77.VarExpr:
		if x.Sym.IsConst {
			return lw.constI(int64(x.Sym.Const))
		}
		slot := lw.slots[x.Sym]
		if x.Sym.IsArray() {
			return lw.in(func(env *Env) int64 { return int64(env.storage(slot, 0)[0]) })
		}
		n := lw.newNode()
		n.i, n.slot = scalarI, slot
		return iexpr{n}
	case *f77.ArrayExpr:
		return lw.unI(fToInt, lw.load(lw.ref(x.Sym, x.Subs, 0)).node)
	case *f77.Un:
		switch x.Op {
		case f77.OpNeg:
			return lw.unI(negI, lw.lowerI(x.X).node)
		case f77.OpPlus:
			return lw.lowerI(x.X)
		}
	case *f77.Bin:
		if f77.TypeOf(x.L).IsFloat() || f77.TypeOf(x.R).IsFloat() {
			break
		}
		if op := intOps[x.Op]; op != nil {
			return lw.binI(op, lw.lowerI(x.L), lw.lowerI(x.R))
		}
	case *f77.CallExpr:
		return lw.unI(fToInt, lw.call(x).node)
	}
	// Everything else goes through float evaluation (INT of a REAL
	// expression, a mixed-type product).
	return lw.unI(fToInt, lw.lowerF(e).node)
}

// lowerB lowers a logical expression. LOGICAL variables store 1.0 for
// .TRUE. and 0.0 for .FALSE. in their one-word cells.
func (lw *Lowered) lowerB(e f77.Expr) bexpr {
	un := func(b func(*node, *Env) bool, x *node) bexpr {
		n := lw.newNode()
		n.b, n.x = b, x
		return bexpr{n}
	}
	bin := func(b func(*node, *Env) bool, x, y *node) bexpr {
		n := lw.newNode()
		n.b, n.x, n.y = b, x, y
		return bexpr{n}
	}
	switch x := e.(type) {
	case *f77.LogLit:
		n := lw.newNode()
		n.b = litB
		if x.Val {
			n.n = 1
		}
		return bexpr{n}
	case *f77.VarExpr:
		if x.Sym.Type == f77.TLogical {
			return un(nonZero, lw.lowerF(x).node)
		}
	case *f77.ArrayExpr:
		if x.Sym.Type == f77.TLogical {
			return un(nonZero, lw.load(lw.ref(x.Sym, x.Subs, 0)).node)
		}
	case *f77.Un:
		if x.Op == f77.OpNot {
			return un(notB, lw.lowerB(x.X).node)
		}
	case *f77.Bin:
		switch x.Op {
		case f77.OpAnd:
			l, r := lw.lowerB(x.L), lw.lowerB(x.R)
			return bin(andB, l.node, r.node)
		case f77.OpOr:
			l, r := lw.lowerB(x.L), lw.lowerB(x.R)
			return bin(orB, l.node, r.node)
		case f77.OpLT, f77.OpLE, f77.OpGT, f77.OpGE, f77.OpEQ, f77.OpNE:
			if f77.TypeOf(x.L) == f77.TInteger && f77.TypeOf(x.R) == f77.TInteger {
				l, r := lw.lowerI(x.L), lw.lowerI(x.R)
				return bin(relI[x.Op], l.node, r.node)
			}
			l, r := lw.lowerF(x.L), lw.lowerF(x.R)
			return bin(relF[x.Op], l.node, r.node)
		}
	}
	return lw.bn(func(env *Env) bool {
		env.fail(0, "expression is not logical: %T", e)
		return false
	})
}

func litB(n *node, _ *Env) bool      { return n.n != 0 }
func nonZero(n *node, env *Env) bool { return n.x.f(n.x, env) != 0 }
func notB(n *node, env *Env) bool    { return !n.x.b(n.x, env) }
func andB(n *node, env *Env) bool    { return n.x.b(n.x, env) && n.y.b(n.y, env) }
func orB(n *node, env *Env) bool     { return n.x.b(n.x, env) || n.y.b(n.y, env) }

// relI and relF are the relational operators over either numeric type.
var (
	relI = map[f77.BinOp]func(*node, *Env) bool{
		f77.OpLT: func(n *node, env *Env) bool { a := n.x.i(n.x, env); return a < n.y.i(n.y, env) },
		f77.OpLE: func(n *node, env *Env) bool { a := n.x.i(n.x, env); return a <= n.y.i(n.y, env) },
		f77.OpGT: func(n *node, env *Env) bool { a := n.x.i(n.x, env); return a > n.y.i(n.y, env) },
		f77.OpGE: func(n *node, env *Env) bool { a := n.x.i(n.x, env); return a >= n.y.i(n.y, env) },
		f77.OpEQ: func(n *node, env *Env) bool { a := n.x.i(n.x, env); return a == n.y.i(n.y, env) },
		f77.OpNE: func(n *node, env *Env) bool { a := n.x.i(n.x, env); return a != n.y.i(n.y, env) },
	}
	relF = map[f77.BinOp]func(*node, *Env) bool{
		f77.OpLT: func(n *node, env *Env) bool { a := n.x.f(n.x, env); return a < n.y.f(n.y, env) },
		f77.OpLE: func(n *node, env *Env) bool { a := n.x.f(n.x, env); return a <= n.y.f(n.y, env) },
		f77.OpGT: func(n *node, env *Env) bool { a := n.x.f(n.x, env); return a > n.y.f(n.y, env) },
		f77.OpGE: func(n *node, env *Env) bool { a := n.x.f(n.x, env); return a >= n.y.f(n.y, env) },
		f77.OpEQ: func(n *node, env *Env) bool { a := n.x.f(n.x, env); return a == n.y.f(n.y, env) },
		f77.OpNE: func(n *node, env *Env) bool { a := n.x.f(n.x, env); return a != n.y.f(n.y, env) },
	}
)

// ---- Calls ----

// call lowers an intrinsic or user function reference.
func (lw *Lowered) call(x *f77.CallExpr) fexpr {
	if x.Intrinsic {
		return lw.intrinsic(x)
	}
	u := lw.callee(x.Name, f77.KFunction)
	if u == nil {
		return lw.fn(func(env *Env) float64 {
			env.fail(0, "call of unknown function %s", x.Name)
			return 0
		})
	}
	binds := lw.binders(u, x.Args, 0)
	result := lw.slots[u.src.Syms.Lookup(u.src.Name)]
	truncate := u.src.Result == f77.TInteger
	return lw.fn(func(env *Env) float64 {
		mark := env.enter(u, binds, 0)
		v := env.storage(result, 0)[0]
		env.leave(u, mark)
		if truncate {
			v = float64(int64(v))
		}
		return v
	})
}

// intrinsic resolves an intrinsic by name once, at lowering. Arguments
// evaluate as floats (integer arguments through int64 first), in order.
func (lw *Lowered) intrinsic(x *f77.CallExpr) fexpr {
	arg := func(i int) fexpr { return lw.lowerF(x.Args[i]) }
	switch x.Name {
	case "ABS", "IABS": // direct calls compile to instructions
		a := arg(0)
		return lw.fn(func(env *Env) float64 { return math.Abs(a.eval(env)) })
	case "SQRT":
		a := arg(0)
		return lw.fn(func(env *Env) float64 { return math.Sqrt(a.eval(env)) })
	case "EXP", "LOG", "ALOG", "SIN", "COS", "TAN", "ATAN", "NINT":
		a, f := arg(0), unaryMath[x.Name]
		return lw.fn(func(env *Env) float64 { return f(a.eval(env)) })
	case "REAL", "FLOAT", "DBLE":
		return arg(0)
	case "INT":
		a := arg(0)
		return lw.fn(func(env *Env) float64 { return float64(int64(a.eval(env))) })
	case "ATAN2", "DMOD", "SIGN":
		a, b, f := arg(0), arg(1), binaryMath[x.Name]
		return lw.fn(func(env *Env) float64 { v := a.eval(env); return f(v, b.eval(env)) })
	case "MOD":
		if f77.TypeOf(x.Args[0]) == f77.TInteger && f77.TypeOf(x.Args[1]) == f77.TInteger {
			a, b := lw.lowerI(x.Args[0]), lw.lowerI(x.Args[1])
			return lw.fn(func(env *Env) float64 {
				m := b.eval(env)
				if m == 0 {
					env.fail(0, "MOD by zero")
				}
				return float64(a.eval(env) % m)
			})
		}
		a, b := arg(0), arg(1)
		return lw.fn(func(env *Env) float64 { v := a.eval(env); return math.Mod(v, b.eval(env)) })
	case "MIN", "MIN0", "AMIN1", "MAX", "MAX0", "AMAX1":
		args := make([]fexpr, len(x.Args))
		for i := range args {
			args[i] = arg(i)
		}
		pick := math.Min
		if strings.Contains(x.Name, "MAX") {
			pick = math.Max
		}
		truncate := x.Name == "MIN0" || x.Name == "MAX0"
		return lw.fn(func(env *Env) float64 {
			out := args[0].eval(env)
			for _, a := range args[1:] {
				out = pick(out, a.eval(env))
			}
			if truncate {
				return float64(int64(out))
			}
			return out
		})
	}
	return lw.fn(func(env *Env) float64 {
		env.fail(0, "unhandled intrinsic %s", x.Name)
		return 0
	})
}

// unaryMath and binaryMath are the intrinsics that are plain float
// functions of their arguments.
var (
	unaryMath = map[string]func(float64) float64{
		"EXP": math.Exp, "LOG": math.Log, "ALOG": math.Log, "SIN": math.Sin,
		"COS": math.Cos, "TAN": math.Tan, "ATAN": math.Atan, "NINT": math.Round,
	}
	binaryMath = map[string]func(float64, float64) float64{
		"ATAN2": math.Atan2, "DMOD": math.Mod, "SIGN": sign,
	}
)

func sign(v, s float64) float64 {
	if s < 0 {
		return -math.Abs(v)
	}
	return math.Abs(v)
}

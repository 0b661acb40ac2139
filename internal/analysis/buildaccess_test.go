package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vbuscluster/internal/analysis"
	"vbuscluster/internal/bench"
	"vbuscluster/internal/f77"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/progen"
)

// refAccess is what the reference chain derives for one reference: the
// descriptor, the loop behind each dimension and the linearised form.
type refAccess struct {
	L       lmad.LMAD
	DimLoop []*f77.Symbol
	lin     analysis.Affine
}

// referenceBuildAccess is BuildAccess as a chain of separate steps:
// the array's layout, one affine form per subscript (referenceAffine),
// their linearisation, then one WithDim per loop.
func referenceBuildAccess(sym *f77.Symbol, subs []f77.Expr, loops []analysis.LoopCtx) (refAccess, bool) {
	if len(subs) == 0 {
		return refAccess{L: lmad.New(sym.Name, 0)}, true
	}
	lay, err := analysis.LayoutOf(sym)
	if err != nil {
		return refAccess{}, false
	}
	affs := make([]analysis.Affine, len(subs))
	for i, s := range subs {
		a, ok := referenceAffine(s, loops)
		if !ok {
			return refAccess{}, false
		}
		affs[i] = a
	}
	var lin analysis.Affine
	for i, s := range affs {
		lin = refAdd(lin, refScale(analysis.Affine{Const: s.Const - lay.Lows[i], Terms: s.Terms}, lay.Mult[i]), 1)
	}
	off := lin.Const
	for _, c := range loops {
		off += lin.Coeff(c.Var) * c.From
	}
	out := refAccess{L: lmad.New(sym.Name, off), lin: lin}
	for _, c := range loops {
		co := lin.Coeff(c.Var)
		if co == 0 {
			continue
		}
		trips := c.Trips()
		if trips <= 0 {
			trips = 1
		}
		stride := co * c.Step
		before := out.L.Rank()
		out.L = out.L.WithDim(stride, stride*(trips-1))
		if out.L.Rank() > before {
			out.DimLoop = append(out.DimLoop, c.Var)
		}
	}
	return out, true
}

// refAdd returns a + sign·b in fresh terms.
func refAdd(a, b analysis.Affine, sign int64) analysis.Affine {
	out := analysis.Affine{Const: a.Const + sign*b.Const, Terms: append([]analysis.Term(nil), a.Terms...)}
next:
	for _, t := range b.Terms {
		for j := range out.Terms {
			if out.Terms[j].Var == t.Var {
				out.Terms[j].Coeff += sign * t.Coeff
				continue next
			}
		}
		out.Terms = append(out.Terms, analysis.Term{Var: t.Var, Coeff: sign * t.Coeff})
	}
	return out
}

// refScale returns k·a in fresh terms.
func refScale(a analysis.Affine, k int64) analysis.Affine {
	return refAdd(analysis.Affine{}, analysis.Affine{Const: a.Const, Terms: a.Terms}, k)
}

// referenceAffine is ExtractAffine as a recursion over whole forms: each
// operand is extracted on its own and the forms are combined.
func referenceAffine(e f77.Expr, loops []analysis.LoopCtx) (analysis.Affine, bool) {
	switch x := e.(type) {
	case *f77.IntLit:
		return analysis.Affine{Const: x.Val}, true
	case *f77.VarExpr:
		if x.Sym.IsConst {
			if x.Sym.Type != f77.TInteger && x.Sym.Const != float64(int64(x.Sym.Const)) {
				return analysis.Affine{}, false
			}
			return analysis.Affine{Const: int64(x.Sym.Const)}, true
		}
		for _, c := range loops {
			if c.Var == x.Sym {
				return analysis.Affine{Terms: []analysis.Term{{Var: x.Sym, Coeff: 1}}}, true
			}
		}
		return analysis.Affine{}, false
	case *f77.Un:
		sub, ok := referenceAffine(x.X, loops)
		if !ok {
			return analysis.Affine{}, false
		}
		switch x.Op {
		case f77.OpNeg:
			return refScale(sub, -1), true
		case f77.OpPlus:
			return sub, true
		}
		return analysis.Affine{}, false
	case *f77.Bin:
		l, lok := referenceAffine(x.L, loops)
		r, rok := referenceAffine(x.R, loops)
		if !lok || !rok {
			return analysis.Affine{}, false
		}
		switch x.Op {
		case f77.OpAdd:
			return refAdd(l, r, 1), true
		case f77.OpSub:
			return refAdd(l, r, -1), true
		case f77.OpMul:
			if l.IsConst() {
				return refScale(r, l.Const), true
			}
			if r.IsConst() {
				return refScale(l, r.Const), true
			}
		case f77.OpDiv:
			if l.IsConst() && r.IsConst() && r.Const != 0 && l.Const%r.Const == 0 {
				return analysis.Affine{Const: l.Const / r.Const}, true
			}
		case f77.OpPow:
			if l.IsConst() && r.IsConst() && r.Const >= 0 {
				v := int64(1)
				for i := int64(0); i < r.Const; i++ {
					v *= l.Const
				}
				return analysis.Affine{Const: v}, true
			}
		}
	}
	return analysis.Affine{}, false
}

// pinned is a one-trip context: the loop's variable at its first value.
func pinned(c analysis.LoopCtx) analysis.LoopCtx {
	return analysis.LoopCtx{Loop: c.Loop, Var: c.Var, From: c.From, To: c.From, Step: c.Step, Exact: c.Exact}
}

// resolveNest resolves nest[len(head):] under head, as the record's
// walk does; ok=false when a bound does not resolve.
func resolveNest(head []analysis.LoopCtx, nest []*f77.DoLoop) ([]analysis.LoopCtx, bool) {
	out := append([]analysis.LoopCtx(nil), head...)
	for _, l := range nest[len(head):] {
		c, err := analysis.ResolveLoop(l, out)
		if err != nil {
			return nil, false
		}
		out = append(out, c)
	}
	return out, true
}

// loopLists returns loop lists to call BuildAccess with for a
// reference inside nest: the full enclosing nest, for each loop the
// list with it and the loops outside it pinned and the inner loops
// resolved under those, and for each loop the list of it and the loops
// inside it alone.
func loopLists(nest []*f77.DoLoop) map[string][]analysis.LoopCtx {
	lists := map[string][]analysis.LoopCtx{}
	full, ok := resolveNest(nil, nest)
	if ok {
		lists["full"] = full
	}
	for d := range nest {
		if ok {
			head := make([]analysis.LoopCtx, d+1)
			for i := range head {
				head[i] = pinned(full[i])
			}
			if l, ok := resolveNest(head, nest); ok {
				lists[fmt.Sprintf("pinned%d", d)] = l
			}
		}
		if c, err := analysis.ResolveLoop(nest[d], nil); err == nil {
			if l, ok := resolveNest([]analysis.LoopCtx{c}, nest[d:]); ok {
				lists[fmt.Sprintf("target%d", d)] = l
			}
		}
	}
	return lists
}

// eachRef calls f for every reference in stmts (assignment targets and
// every variable or array expression) with the loops enclosing it.
func eachRef(stmts []f77.Stmt, nest []*f77.DoLoop, f func(sym *f77.Symbol, subs []f77.Expr, nest []*f77.DoLoop)) {
	for _, s := range stmts {
		if a, ok := s.(*f77.Assign); ok {
			f(a.LHS.Sym, a.LHS.Subs, nest)
		}
		f77.StmtExprs(s, func(e f77.Expr) {
			f77.WalkExpr(e, func(sub f77.Expr) {
				switch v := sub.(type) {
				case *f77.ArrayExpr:
					f(v.Sym, v.Subs, nest)
				case *f77.VarExpr:
					f(v.Sym, nil, nest)
				}
			})
		})
		switch x := s.(type) {
		case *f77.DoLoop:
			eachRef(x.Body, append(nest[:len(nest):len(nest)], x), f)
		case *f77.IfBlock:
			for _, blk := range x.Blocks {
				eachRef(blk, nest, f)
			}
			eachRef(x.Else, nest, f)
		}
	}
}

// accessCorpus is every program the compile-path oracles run over:
// testdata/*.f, the three kernels, the edge shapes and 50 generated
// programs.
func accessCorpus(t *testing.T) map[string]string {
	t.Helper()
	files, err := filepath.Glob("../../testdata/*.f")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	progs := map[string]string{
		"mm24":   bench.MMSource(24),
		"swim32": bench.SwimSource(32, 32),
		"cfft5":  bench.CFFTSource(5),
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		progs[filepath.Base(file)] = string(src)
	}
	for _, sh := range progen.Shapes {
		progs[sh.Name] = sh.Src
	}
	for seed := int64(0); seed < 50; seed++ {
		progs[fmt.Sprintf("gen%02d", seed)] = progen.New(seed).Generate()
	}
	return progs
}

// TestBuildAccessMatchesReference holds BuildAccess to the reference
// chain on every reference of the corpus, as parsed and after the
// front end, under every loop list the compiler builds for it.
func TestBuildAccessMatchesReference(t *testing.T) {
	refs, analysable := 0, 0
	for name, src := range accessCorpus(t) {
		for _, stage := range []string{"parsed", "front-end"} {
			prog, err := f77.Parse(src)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if stage == "front-end" {
				if err := analysis.FrontEnd(prog); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			for _, u := range prog.Units {
				eachRef(u.Body, nil, func(sym *f77.Symbol, subs []f77.Expr, nest []*f77.DoLoop) {
					for list, loops := range loopLists(nest) {
						where := fmt.Sprintf("%s %s %s %s(%d subs) %s", name, stage, u.Name, sym.Name, len(subs), list)
						want, wok := referenceBuildAccess(sym, subs, loops)
						got, gok := analysis.BuildAccess(sym, subs, loops)
						refs++
						if gok != wok {
							t.Fatalf("%s: ok = %v, reference %v", where, gok, wok)
						}
						if !gok {
							continue
						}
						analysable++
						if !got.L.Equal(want.L) || got.L.Offset != want.L.Offset || len(got.L.Dims) != len(want.L.Dims) {
							t.Fatalf("%s: L = %v, reference %v", where, got.L, want.L)
						}
						if len(got.DimLoop) != len(want.DimLoop) {
							t.Fatalf("%s: DimLoop = %v, reference %v", where, got.DimLoop, want.DimLoop)
						}
						for i := range got.DimLoop {
							if got.DimLoop[i] != want.DimLoop[i] {
								t.Fatalf("%s: DimLoop[%d] = %s, reference %s", where, i, got.DimLoop[i].Name, want.DimLoop[i].Name)
							}
						}
						for _, c := range loops {
							if g, w := got.Coeff(c.Var), want.lin.Coeff(c.Var); g != w {
								t.Fatalf("%s: Coeff(%s) = %d, reference %d", where, c.Var.Name, g, w)
							}
						}
						if list != "full" {
							continue
						}
						// The projection a loop's test derives: the
						// full access with loops[:pin] pinned is what
						// BuildAccess builds under those loops pinned.
						for pin := 1; pin <= len(loops); pin++ {
							head := append([]analysis.LoopCtx(nil), loops...)
							for i := range head[:pin] {
								head[i] = pinned(head[i])
							}
							if p, _ := analysis.BuildAccess(sym, subs, head); !got.At(loops, pin).Equal(p.L) {
								t.Fatalf("%s: pinned to depth %d = %v, built %v", where, pin, got.At(loops, pin), p.L)
							}
						}
					}
				})
			}
		}
	}
	if analysable == 0 || analysable == refs {
		t.Fatalf("corpus checks %d references, %d analysable: want both outcomes", refs, analysable)
	}
	t.Logf("%d references checked, %d analysable", refs, analysable)
}

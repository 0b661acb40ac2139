package progen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Nest is a generated program whose last statement is a loop nest two
// or three deep over two one-dimensional arrays, X and Y, with the
// structure Carried needs to enumerate the dependences of every loop.
// Subscripts are a·I + c·J (+ e·K) + b with coefficients from
// {−3, …, 3, 5, 10, 20}; inner loops may be triangular in an enclosing
// index and run no trip for some of its values; the outer loop may run
// down; steps are 1 or 2; a write may sit under an IF on the indices.
type Nest struct {
	Src   string
	Loops []NestLoop // outermost first
	Stmts []NestStmt
}

// NestLoop is one DO of the nest.
type NestLoop struct {
	Var      string
	From, To Form // affine in the enclosing loops' variables
	Step     int
	Line     int // the DO statement's line
}

// Form is C + Σ Coef[k]·v_k over the nest's loop variables, outermost
// first.
type Form struct {
	C    int
	Coef [3]int
}

// NestStmt is one assignment of the nest: Write = f(Reads), inside the
// first Depth loops, run only where Cond > 0 when Guarded.
type NestStmt struct {
	Depth   int
	Guarded bool
	Cond    Form
	Write   NestRef
	Reads   []NestRef
}

// NestRef is one reference Array(Sub), Array 0 for X and 1 for Y.
type NestRef struct {
	Array int
	Sub   Form
}

var nestVars = [3]string{"I", "J", "K"}

func (f Form) eval(v []int) int {
	s := f.C
	for k, x := range v {
		s += f.Coef[k] * x
	}
	return s
}

// String renders the form in Fortran.
func (f Form) String() string {
	var sb strings.Builder
	for k, c := range f.Coef {
		switch {
		case c == 0:
			continue
		case c == 1 && sb.Len() == 0:
		case c == 1:
			sb.WriteString("+")
		case c == -1:
			sb.WriteString("-")
		case sb.Len() == 0:
			fmt.Fprintf(&sb, "%d*", c)
		default:
			fmt.Fprintf(&sb, "%+d*", c)
		}
		sb.WriteString(nestVars[k])
	}
	switch {
	case sb.Len() == 0:
		fmt.Fprint(&sb, f.C)
	case f.C != 0:
		fmt.Fprintf(&sb, "%+d", f.C)
	}
	return sb.String()
}

// bounds returns the least and greatest value f takes when each
// variable k ranges over [lo[k], hi[k]].
func (f Form) bounds(lo, hi []int) (int, int) {
	least, most := f.C, f.C
	for k := range lo {
		a, b := f.Coef[k]*lo[k], f.Coef[k]*hi[k]
		least += min(a, b)
		most += max(a, b)
	}
	return least, most
}

// nestCoeffs are the subscript coefficients, 0 and 1 weighted up.
var nestCoeffs = []int{0, 0, 0, 0, 1, 1, 1, -1, 2, -2, 3, -3, 5, 10, 20}

// NewNest returns the nest for seed.
func NewNest(seed int64) Nest {
	rng := rand.New(rand.NewSource(seed))
	n := Nest{}
	depth := 2 + rng.Intn(2)
	// The outer loop: 1 to 7 trips, up or down, by 1 or 2.
	step := []int{1, 1, 2, -1, -2}[rng.Intn(5)]
	trips := 2 + rng.Intn(6)
	if rng.Intn(16) == 0 {
		trips = 1
	}
	from := 1 + rng.Intn(3)
	if step < 0 {
		from -= (trips - 1) * step
	}
	n.Loops = append(n.Loops, NestLoop{Var: "I", Step: step,
		From: Form{C: from}, To: Form{C: from + (trips-1)*step}})
	for d := 1; d < depth; d++ {
		l := NestLoop{Var: nestVars[d], Step: 1 + rng.Intn(2)}
		first := 1 + rng.Intn(3)
		l.From, l.To = Form{C: first}, Form{C: first + 1 + rng.Intn(5-d)}
		if rng.Intn(2) == 0 {
			// Triangular in an enclosing index: J = I+c, hi or
			// J = lo, I+c; hi or lo may leave no trip for some I.
			o := rng.Intn(d)
			tri := Form{C: rng.Intn(3) - 1}
			tri.Coef[o] = 1
			if rng.Intn(2) == 0 {
				l.From = tri
			} else {
				l.To = tri
			}
		}
		n.Loops = append(n.Loops, l)
	}
	// Ranges of every variable, the way the front end bounds them: the
	// hull of each bound over the enclosing variables' ranges.
	lo, hi := make([]int, depth), make([]int, depth)
	for d, l := range n.Loops {
		f0, f1 := l.From.bounds(lo[:d], hi[:d])
		t0, t1 := l.To.bounds(lo[:d], hi[:d])
		if l.Step > 0 {
			lo[d], hi[d] = f0, t1
		} else {
			lo[d], hi[d] = t0, f1
		}
	}
	form := func(d int) Form {
		f := Form{C: rng.Intn(7) - 3}
		for k := 0; k < d; k++ {
			f.Coef[k] = nestCoeffs[rng.Intn(len(nestCoeffs))]
		}
		return f
	}
	for s, ns := 0, 1+rng.Intn(2); s < ns; s++ {
		st := NestStmt{Depth: depth}
		if rng.Intn(3) == 0 {
			st.Depth = 1 + rng.Intn(depth)
		}
		st.Write = NestRef{Array: rng.Intn(2), Sub: form(st.Depth)}
		for r, nr := 0, rng.Intn(3); r < nr; r++ {
			st.Reads = append(st.Reads, NestRef{Array: rng.Intn(2), Sub: form(st.Depth)})
		}
		if rng.Intn(5) == 0 {
			st.Guarded = true
			st.Cond = Form{C: -(2 + rng.Intn(6))}
			st.Cond.Coef[rng.Intn(st.Depth)] = 1
			if st.Depth > 1 && rng.Intn(2) == 0 {
				st.Cond.Coef[rng.Intn(st.Depth)] += 1
			}
		}
		n.Stmts = append(n.Stmts, st)
	}
	// Shift each array's subscripts so that every value the hull allows
	// is in bounds, 1 or a little above.
	var size [2]int
	for a := 0; a < 2; a++ {
		least, most, found := 0, 0, false
		each := func(f func(r *NestRef)) {
			for i := range n.Stmts {
				st := &n.Stmts[i]
				if st.Write.Array == a {
					f(&st.Write)
				}
				for j := range st.Reads {
					if st.Reads[j].Array == a {
						f(&st.Reads[j])
					}
				}
			}
		}
		each(func(r *NestRef) {
			l, h := r.Sub.bounds(lo, hi)
			if !found || l < least {
				least = l
			}
			if !found || h > most {
				most = h
			}
			found = true
		})
		shift := 1 - least + rng.Intn(3)
		each(func(r *NestRef) { r.Sub.C += shift })
		size[a] = most + shift + rng.Intn(3)
		if !found {
			size[a] = 4
		}
	}
	n.Src = n.write(size)
	return n
}

// write renders the program: both arrays set to distinct values, then
// the nest.
func (n *Nest) write(size [2]int) string {
	var sb strings.Builder
	lines := 0
	line := func(format string, args ...any) {
		fmt.Fprintf(&sb, format+"\n", args...)
		lines++
	}
	name := [2]string{"X", "Y"}
	line("      PROGRAM NEST")
	line("      REAL X(%d), Y(%d)", size[0], size[1])
	line("      INTEGER I, J, K")
	for a := 0; a < 2; a++ {
		line("      DO I = 1, %d", size[a])
		line("        %s(I) = REAL(I) * %.2f", name[a], 0.5+float64(a)*0.25)
		line("      ENDDO")
	}
	ref := func(r NestRef) string { return fmt.Sprintf("%s(%s)", name[r.Array], r.Sub) }
	for d := range n.Loops {
		l := &n.Loops[d]
		indent := strings.Repeat("  ", d)
		l.Line = lines + 1
		if l.Step == 1 {
			line("      %sDO %s = %s, %s", indent, l.Var, l.From, l.To)
		} else {
			line("      %sDO %s = %s, %s, %d", indent, l.Var, l.From, l.To, l.Step)
		}
		for _, st := range n.Stmts {
			if st.Depth != d+1 {
				continue
			}
			rhs := "REAL(I) + 0.25"
			for i, r := range st.Reads {
				if i == 0 {
					rhs = ref(r) + " * 0.5"
				} else {
					rhs += " + " + ref(r)
				}
			}
			if st.Guarded {
				c := st.Cond
				c.C = 0
				line("      %s  IF (%s .GT. %d) %s = %s", indent, c, -st.Cond.C, ref(st.Write), rhs)
			} else {
				line("      %s  %s = %s", indent, ref(st.Write), rhs)
			}
		}
	}
	for d := len(n.Loops) - 1; d >= 0; d-- {
		line("      %sENDDO", strings.Repeat("  ", d))
	}
	line("      END")
	return sb.String()
}

// Carried enumerates the nest at its real bounds and reports, for
// every loop outermost first, whether two different iterations of it
// within one iteration of the loops around it touch one element of one
// array, at least one of them writing it: a flow, anti or output
// dependence the loop carries.
func (n Nest) Carried() []bool {
	type key struct {
		outer [3]int
		array int
		elem  int
	}
	type seen struct {
		iter         int
		multi, write bool
	}
	out := make([]bool, len(n.Loops))
	for lv := range n.Loops {
		m := map[key]*seen{}
		v := make([]int, len(n.Loops))
		touch := func(d int, r NestRef, write bool) {
			k := key{array: r.Array, elem: r.Sub.eval(v[:d])}
			copy(k.outer[:lv], v[:lv])
			s := m[k]
			if s == nil {
				s = &seen{iter: v[lv]}
				m[k] = s
			} else if s.iter != v[lv] {
				s.multi = true
			}
			s.write = s.write || write
		}
		var walk func(d int)
		walk = func(d int) {
			l := n.Loops[d]
			from, to := l.From.eval(v[:d]), l.To.eval(v[:d])
			for x := from; (l.Step > 0 && x <= to) || (l.Step < 0 && x >= to); x += l.Step {
				v[d] = x
				for _, st := range n.Stmts {
					if st.Depth != d+1 || d < lv || (st.Guarded && st.Cond.eval(v[:st.Depth]) <= 0) {
						continue
					}
					for _, r := range st.Reads {
						touch(st.Depth, r, false)
					}
					touch(st.Depth, st.Write, true)
				}
				if d+1 < len(n.Loops) {
					walk(d + 1)
				}
			}
		}
		walk(0)
		for _, s := range m {
			if s.multi && s.write {
				out[lv] = true
				break
			}
		}
	}
	return out
}

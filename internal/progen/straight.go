package progen

import (
	"fmt"
	"math/rand"
	"strings"
)

// StraightLoop is a generated program whose last DO loop is straight:
// assignments only, over the shapes a register tape compiles.
type StraightLoop struct {
	Src  string
	Line int // the straight loop's DO statement
	// Trips is the straight loop's trip count.
	Trips int
	// Init says every statement of the loop is an initialisation shape:
	// a store of a constant, a REAL or INTEGER value affine in the loop
	// variable, or one of the nine one-argument intrinsics over such
	// values or array elements, into an array no other statement of the
	// loop touches.
	Init bool
}

// straightGen writes one StraightLoop.
type straightGen struct {
	rng   *rand.Rand
	sb    strings.Builder
	lines int
	v     string // the straight loop's variable
	// vmin and vmax bound the values the variable takes; idx keeps every
	// subscript between 1 and straightN for them.
	vmin, vmax int
}

const straightN = 64

// straightMath are the one-argument intrinsics a tape runs in lanes.
var straightMath = []string{"SIN", "COS", "SQRT", "ABS", "EXP", "LOG", "TAN", "ATAN", "NINT"}

func (g *straightGen) line(format string, args ...any) {
	fmt.Fprintf(&g.sb, format+"\n", args...)
	g.lines++
}

func (g *straightGen) pick(list ...string) string { return list[g.rng.Intn(len(list))] }

// idx returns a subscript a·v + b in bounds for every value of the
// variable: a of 0 is a step-0 element, a negative a runs backwards.
func (g *straightGen) idx() string {
	a := []int{0, 1, 1, 1, 2, -1, 3}[g.rng.Intn(7)]
	lo, hi := a*g.vmin, a*g.vmax
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi-lo > straightN-1 {
		a, lo, hi = 1, g.vmin, g.vmax
	}
	b := 1 - lo + g.rng.Intn(straightN-(hi-lo))
	switch {
	case a == 0:
		return fmt.Sprint(b)
	case a == 1 && b == 0:
		return g.v
	case a == 1:
		return fmt.Sprintf("%s%+d", g.v, b)
	case a == -1:
		return fmt.Sprintf("%d-%s", b, g.v)
	}
	return fmt.Sprintf("%d*%s%+d", a, g.v, b)
}

// affine returns an INTEGER expression affine in the loop variable and
// the scalars J and M, which the loop never writes.
func (g *straightGen) affine() string {
	return g.pick(g.v, "J", g.v+"+J", g.v+"-J", "J-"+g.v, g.v+"-J+3", g.v+"+J-M", "2*"+g.v+"-1", "M", "-"+g.v)
}

// real returns a REAL value of an affine expression.
func (g *straightGen) real() string {
	return fmt.Sprintf("%s(%s)", g.pick("REAL", "REAL", "FLOAT", "DBLE"), g.affine())
}

// arg returns an intrinsic's argument: an affine value, scaled or not,
// or an array element.
func (g *straightGen) arg() string {
	switch g.rng.Intn(4) {
	case 0:
		return g.real()
	case 1:
		return g.real() + " / 4.0"
	case 2:
		return fmt.Sprintf("X(%s)", g.idx())
	}
	return fmt.Sprintf("Y(%s) * 2.5", g.idx())
}

// initValue returns the right-hand side of an initialisation store.
func (g *straightGen) initValue() string {
	switch g.rng.Intn(5) {
	case 0:
		return g.pick("0.0", "1.5", "-0.0")
	case 1:
		return g.real() + g.pick("", " * 0.5", " / REAL(M)")
	case 2:
		return g.affine()
	case 3:
		return fmt.Sprintf("%s(%s)", g.pick(straightMath...), g.arg())
	}
	return fmt.Sprintf("P + %s(%s) * 10.0", g.pick(straightMath...), g.arg())
}

// term returns the e of a fold T = T ± e·Y.
func (g *straightGen) term() string {
	switch g.rng.Intn(4) {
	case 0:
		return fmt.Sprintf("(X(%s) + P)", g.idx())
	case 1:
		return g.real() + " * 0.5"
	case 2:
		return fmt.Sprintf("%s(%s)", g.pick(straightMath...), g.arg())
	}
	return "P"
}

// stmt returns one statement of the loop and whether it is an
// initialisation shape; target names that shape's array.
func (g *straightGen) stmt(target string) (string, bool) {
	t := fmt.Sprintf("T(%d)", 1+g.rng.Intn(4))
	switch g.rng.Intn(8) {
	case 0: // the dot product, MM's K loop
		return fmt.Sprintf("%s = %s %s X(%s) * Y(%s)", t, t, g.pick("+", "-"), g.idx(), g.idx()), false
	case 1: // T = T ± e·Y
		return fmt.Sprintf("%s = %s %s %s * Y(%s)", t, t, g.pick("+", "-"), g.term(), g.idx()), false
	case 2: // the other folds
		return fmt.Sprintf("%s = %s %s %s(%s)", t, t, g.pick("+", "-", "*", "/"), g.pick("X", "Y"), g.idx()), false
	case 3: // an array read and stored, apart or not
		return fmt.Sprintf("X(%s) = X(%s) * 0.5 + Y(%s)", g.idx(), g.idx(), g.idx()), false
	case 4: // a scalar accumulator: no strip
		return fmt.Sprintf("S = S + %s", g.term()), false
	}
	if target == "L" {
		return fmt.Sprintf("L(%s) = %s", g.idx(), g.pick(g.affine(), "NINT("+g.arg()+")")), true
	}
	return fmt.Sprintf("%s(%s) = %s", target, g.idx(), g.initValue()), true
}

// Straight returns the straight loop for seed. Around it the program
// sets up X and Y with values that include a pair whose product a
// fused multiply-add would round differently (2⁻³⁰ apart from 1), an
// infinity, a NaN and a negative zero, and the scalars J, M and P; the
// loop is sometimes nested in a DO over J, runs up, down or by a stride,
// and sometimes no trip at all. It prints T and S at the end.
func Straight(seed int64) StraightLoop {
	g := &straightGen{rng: rand.New(rand.NewSource(seed))}
	g.v = g.pick("I", "K")
	g.line("      PROGRAM STRT")
	g.line("      REAL X(%d), Y(%d), Z(%d), W(%d), T(4), E, P, Q, S", straightN, straightN, straightN, straightN)
	g.line("      INTEGER I, J, K, M, L(%d)", straightN)
	g.line("      E = 1.0 / 1073741824.0")
	g.line("      Q = 0.0")
	g.line("      S = 0.5")
	g.line("      P = %.2f", float64(g.rng.Intn(400)-200)/16)
	g.line("      M = %d", 1+g.rng.Intn(6))
	g.line("      J = %d", g.rng.Intn(9)-3)
	g.line("      DO I = 1, %d", straightN)
	g.line("        X(I) = REAL(I) * 0.37 - 5.0")
	g.line("        Y(I) = 2.5 - REAL(I) * 0.11")
	g.line("      ENDDO")
	g.line("      X(5) = 1.0 + E")
	g.line("      Y(5) = 1.0 + E")
	g.line("      T(1) = -(1.0 + 2.0 * E)")
	g.line("      T(2) = %.1f", float64(g.rng.Intn(21)-10))
	g.line("      T(3) = 1.0")
	g.line("      T(4) = 0.0")
	for _, s := range []string{"X(7) = 1.0E308 * 10.0", "Y(9) = Q / Q", "X(11) = -Q", "Y(13) = -1.0E308 * 10.0"} {
		if g.rng.Intn(3) == 0 {
			g.line("      %s", s)
		}
	}
	trips := []int{0, 1, 3, 8, 13, 20}[g.rng.Intn(6)]
	step := []int{1, 1, 2, -1, 3}[g.rng.Intn(5)]
	from := 1 + g.rng.Intn(8)
	if step < 0 {
		from += 20
	}
	to := from + (trips-1)*step
	if trips == 0 {
		to = from - step
	}
	g.vmin, g.vmax = min(from, to), max(from, to)
	nested := g.rng.Intn(3) == 0
	if nested {
		g.line("      DO J = 1, 3")
	}
	line := g.lines + 1
	if step == 1 {
		g.line("      DO %s = %d, %d", g.v, from, to)
	} else {
		g.line("      DO %s = %d, %d, %d", g.v, from, to, step)
	}
	init := true
	targets := []string{"Z", "W", "L"}
	g.rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
		s, ok := g.stmt(targets[i])
		init = init && ok
		g.line("        %s", s)
	}
	g.line("      ENDDO")
	if nested {
		g.line("      ENDDO")
	}
	g.line("      PRINT *, T(1), T(2), T(3), T(4), S")
	g.line("      END")
	return StraightLoop{Src: g.sb.String(), Line: line, Trips: trips, Init: init}
}

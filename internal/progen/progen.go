// Package progen generates random-but-valid Fortran 77 programs from a
// seed, for the differential and recorded-output tests of the compiler
// and runtime. A seed always yields the same program text.
//
// Only tests import this package.
package progen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Gen builds random-but-valid Fortran 77 programs exercising the
// whole pipeline: mixes of parallelizable elementwise loops, strided
// writes, 2-D nests, reductions, scalar broadcasts, and deliberately
// serial recurrences, downward and triangular loops.
type Gen struct {
	rng  *rand.Rand
	sb   strings.Builder
	arrs []string // 1-D arrays
	mats []string // 2-D arrays
	n    int
}

// New returns the generator for seed.
func New(seed int64) *Gen {
	g := &Gen{rng: rand.New(rand.NewSource(seed))}
	g.n = 8 + g.rng.Intn(17) // 8..24
	na := 2 + g.rng.Intn(2)
	for i := 0; i < na; i++ {
		g.arrs = append(g.arrs, fmt.Sprintf("V%d", i))
	}
	nm := 1 + g.rng.Intn(2)
	for i := 0; i < nm; i++ {
		g.mats = append(g.mats, fmt.Sprintf("M%d", i))
	}
	return g
}

func (g *Gen) pick(list []string) string { return list[g.rng.Intn(len(list))] }

// expr1 builds a random scalar expression over 1-D array elements at
// index idx.
func (g *Gen) expr1(idx string, depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(4) {
		case 0:
			return fmt.Sprintf("%s(%s)", g.pick(g.arrs), idx)
		case 1:
			return fmt.Sprintf("%.1f", float64(g.rng.Intn(9))+0.5)
		case 2:
			return fmt.Sprintf("REAL(%s)", idx)
		default:
			return "X"
		}
	}
	l := g.expr1(idx, depth-1)
	r := g.expr1(idx, depth-1)
	switch g.rng.Intn(4) {
	case 0:
		return fmt.Sprintf("(%s + %s)", l, r)
	case 1:
		return fmt.Sprintf("(%s - %s)", l, r)
	case 2:
		return fmt.Sprintf("(%s * 0.5 + %s)", l, r)
	default:
		return fmt.Sprintf("ABS(%s)", l)
	}
}

func (g *Gen) line(format string, args ...any) {
	fmt.Fprintf(&g.sb, format+"\n", args...)
}

// Generate returns the program text.
func (g *Gen) Generate() string {
	g.line("      PROGRAM FUZZ")
	g.line("      INTEGER N")
	g.line("      PARAMETER (N = %d)", g.n)
	for _, a := range g.arrs {
		g.line("      REAL %s(2*N)", a)
	}
	for _, m := range g.mats {
		g.line("      REAL %s(N,N)", m)
	}
	g.line("      REAL X, S")
	g.line("      INTEGER I, J")
	g.line("      X = 1.5")
	g.line("      S = 0.0")
	// Initialization loops so every array is defined before use.
	for _, a := range g.arrs {
		g.line("      DO I = 1, 2*N")
		g.line("        %s(I) = REAL(I) * %0.2f", a, 0.25+float64(g.rng.Intn(4)))
		g.line("      ENDDO")
	}
	for _, m := range g.mats {
		g.line("      DO I = 1, N")
		g.line("        DO J = 1, N")
		g.line("          %s(I,J) = REAL(I) - REAL(J) * 0.5", m)
		g.line("        ENDDO")
		g.line("      ENDDO")
	}
	// Random body regions.
	regions := 2 + g.rng.Intn(3)
	for r := 0; r < regions; r++ {
		switch g.rng.Intn(9) {
		case 0: // elementwise over a 1-D array
			dst := g.pick(g.arrs)
			g.line("      DO I = 1, 2*N")
			g.line("        %s(I) = %s", dst, g.expr1("I", 2))
			g.line("      ENDDO")
		case 1: // strided (CFFT-like) writes
			dst := g.pick(g.arrs)
			g.line("      DO I = 1, N")
			g.line("        %s(2*I-1) = %s", dst, g.expr1("I", 1))
			g.line("        %s(2*I) = %s", dst, g.expr1("I", 1))
			g.line("      ENDDO")
		case 2: // 2-D elementwise with scalar broadcast
			dst := g.pick(g.mats)
			g.line("      DO I = 1, N")
			g.line("        DO J = 1, N")
			g.line("          %s(I,J) = %s(I,J) * X + REAL(I+J)", dst, dst)
			g.line("        ENDDO")
			g.line("      ENDDO")
		case 3: // sum reduction
			src := g.pick(g.arrs)
			g.line("      DO I = 1, 2*N")
			g.line("        S = S + %s(I)", src)
			g.line("      ENDDO")
			g.line("      X = S * 0.125")
		case 4: // serial recurrence (must stay on the master)
			dst := g.pick(g.arrs)
			g.line("      DO I = 2, 2*N")
			g.line("        %s(I) = %s(I-1) * 0.5 + %s(I)", dst, dst, dst)
			g.line("      ENDDO")
		case 6: // reversed subscript (negative coefficient)
			dst := g.pick(g.arrs)
			g.line("      DO I = 1, 2*N")
			g.line("        %s(2*N - I + 1) = %s", dst, g.expr1("I", 1))
			g.line("      ENDDO")
		case 8: // triangular 2-D update (cyclic schedule)
			dst := g.pick(g.mats)
			g.line("      DO I = 1, N")
			g.line("        DO J = I, N")
			g.line("          %s(J,I) = %s(J,I) * 0.5 + REAL(I)", dst, dst)
			g.line("        ENDDO")
			g.line("      ENDDO")
		case 7: // downward loop
			dst := g.pick(g.arrs)
			g.line("      DO I = 2*N, 1, -1")
			g.line("        %s(I) = %s", dst, g.expr1("I", 1))
			g.line("      ENDDO")
		default: // privatizable temporary
			dst := g.pick(g.arrs)
			g.line("      DO I = 1, 2*N")
			g.line("        X = %s(I) * 2.0", dst)
			g.line("        %s(I) = X + 1.0", dst)
			g.line("      ENDDO")
			g.line("      X = 1.5")
		}
	}
	g.line("      PRINT *, S, X")
	g.line("      END")
	return g.sb.String()
}

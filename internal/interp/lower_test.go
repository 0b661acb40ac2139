package interp

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"vbuscluster/internal/f77"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/postpass"
	"vbuscluster/internal/sim"
)

// Node-level behaviour the program generator never emits. Every
// expectation — values, output, virtual picoseconds, error text — was
// recorded from the tree-walking evaluator before it was deleted; the
// programs run as parsed (no inlining), so CALLs execute as frames.
var nodeCases = []struct {
	name    string
	src     string
	mem     map[string][]float64
	elapsed sim.Time
	out     string
	err     string
	// procs, when set, runs the program front-ended and translated
	// for that many ranks at fine grain instead of as parsed.
	procs int
}{
	{
		name: "goto out of loop and IF block, and backwards inside a body",
		src: `
      PROGRAM P
      INTEGER I, J, K, M
      K = 0
      DO I = 1, 10
        K = K + I
        IF (K .GT. 10) GOTO 20
      ENDDO
      K = -1
20    CONTINUE
      M = 0
      IF (K .GT. 0) THEN
        M = M + 1
        GOTO 30
        M = 100
      ENDIF
      M = 200
30    CONTINUE
      DO I = 1, 3
        J = 0
50      J = J + 1
        IF (J .LT. I) GOTO 50
        M = M + J
      ENDDO
      END
`,
		mem:     map[string][]float64{"K": {15}, "M": {7}, "I": {4}, "J": {3}},
		elapsed: 486000,
	},
	{
		name: "goto into a loop body has no target",
		src: `
      PROGRAM P
      INTEGER I, K
      K = 0
      GOTO 40
      DO I = 1, 3
40      K = K + 1
      ENDDO
      END
`,
		err: "interp: line 0: GOTO 40 has no target in P",
	},
	{
		name: "stop inside a call keeps the caller's view",
		src: `
      PROGRAM P
      REAL X
      X = 1.0
      CALL HALT(X)
      X = 3.0
      END

      SUBROUTINE HALT(Y)
      REAL Y, X
      X = 99.0
      Y = 2.0
      STOP
      END
`,
		mem:     map[string][]float64{"X": {2}},
		elapsed: 121000,
	},
	{
		name: "else-if chain",
		src: `
      PROGRAM P
      REAL A(4)
      INTEGER I
      DO I = 1, 4
        IF (I .EQ. 1) THEN
          A(I) = 10.0
        ELSE IF (I .EQ. 2) THEN
          A(I) = 20.0
        ELSE IF (I .GT. 3) THEN
          A(I) = 40.0
        ELSE
          A(I) = 30.0
        ENDIF
      ENDDO
      END
`,
		mem:     map[string][]float64{"A": {10, 20, 30, 40}},
		elapsed: 180000,
	},
	{
		name: "logical assignment and real-to-integer truncation",
		src: `
      PROGRAM P
      LOGICAL L, M(2)
      REAL X
      INTEGER I, J, K, N(2)
      X = 2.0
      L = X .GT. 1.0
      M(1) = .NOT. L
      M(2) = L .AND. (X .LT. 3.0)
      IF (M(2)) X = 5.0
      I = 2.7
      J = -2.7
      K = 7.9 / 2.0
      N(1) = -0.5
      N(2) = X * 1.5
      PRINT *, I, J, K, N(2), X
      END
`,
		mem: map[string][]float64{
			"L": {1}, "M": {0, 1}, "X": {5}, "I": {2}, "J": {-2}, "K": {3}, "N": {0, 7},
		},
		elapsed: 320000,
		out:     "2 -2 3 7 5\n",
	},
	{
		name: "common aliasing across units, data per call, function results",
		src: `
      PROGRAM P
      REAL A(3), S, R
      COMMON /BLK/ A, S
      INTEGER I
      DO I = 1, 3
        A(I) = REAL(I)
      ENDDO
      S = 0.0
      CALL FOLD
      CALL FOLD
      R = TOTAL(2) + REAL(ITRUNC(2.9))
      END

      SUBROUTINE FOLD
      REAL B(3), T, ACC
      COMMON /BLK/ B, T
      DATA ACC /5.0/
      INTEGER I
      ACC = ACC + 1.0
      DO I = 1, 3
        T = T + B(I)
      ENDDO
      T = T + ACC
      END

      REAL FUNCTION TOTAL(K)
      INTEGER K
      REAL B(3), T
      COMMON /BLK/ B, T
      TOTAL = T * REAL(K)
      END

      INTEGER FUNCTION ITRUNC(X)
      REAL X
      ITRUNC = X * 2.0
      END
`,
		mem:     map[string][]float64{"A": {1, 2, 3}, "S": {24}, "R": {53}, "I": {4}},
		elapsed: 1337000,
	},
	{
		name: "adjustable and assumed-size dummies with sequence association",
		src: `
      PROGRAM P
      REAL A(4,3), S, T
      INTEGER I, J
      DO J = 1, 3
        DO I = 1, 4
          A(I,J) = REAL(10*I + J)
        ENDDO
      ENDDO
      CALL COLSUM(A(1,2), 4, 2, S)
      CALL TAIL(A(3,3), T)
      END

      SUBROUTINE COLSUM(V, N, M, OUT)
      INTEGER N, M, I, J
      REAL V(N,M), OUT
      OUT = 0.0
      DO J = 1, M
        DO I = 1, N
          OUT = OUT + V(I,J)
        ENDDO
      ENDDO
      V(N,M) = -1.0
      END

      SUBROUTINE TAIL(W, OUT)
      REAL W(*), OUT
      OUT = W(1) + W(2)
      W(2) = -2.0
      END
`,
		mem: map[string][]float64{
			"A": {11, 21, 31, 41, 12, 22, 32, 42, 13, 23, 33, -2},
			"S": {220}, "T": {32},
		},
		elapsed: 1778000,
	},
	{
		name: "subscripts beyond the straight-line shapes: indirect, three-dimensional, repeated, real-valued",
		src: `
      PROGRAM P
      REAL C(2,3,4), D(-1:1,0:2), S, X
      INTEGER IDX(4), I, J, K
      DO I = 1, 4
        IDX(I) = 5 - I
      ENDDO
      S = 0.0
      DO K = 1, 4
        DO J = 1, 3
          DO I = 1, 2
            C(I,J,IDX(K)) = REAL(100*I + 10*J + K)
          ENDDO
        ENDDO
      ENDDO
      DO I = -1, 1
        D(I,I+1) = C(2, MOD(I+3,3)+1, I+2) + REAL(I)
        D(-I,1-I*I) = D(-I,1-I*I) + 0.5
      ENDDO
      X = 1.7
      S = C(X, X+1.0, IDX(1)/2) + D(0,1)
      END
`,
		mem: map[string][]float64{
			"D": {233.5, 0, 0.5, 0, 213.5, 0, 0, 0, 223},
			"S": {336.5},
		},
		elapsed: 4087000,
	},
	{
		name: "adjustable dummy out of bounds reports the bound extent",
		src: `
      PROGRAM P
      REAL A(6)
      CALL POKE(A, 2, 3)
      END

      SUBROUTINE POKE(V, N, M)
      INTEGER N, M
      REAL V(N,M)
      V(N,M+1) = 1.0
      END
`,
		err: "interp: line 10: V subscript out of bounds: linear index 7, size 6",
	},
	{
		name: "recursive call frames keep each depth's locals",
		src: `
      PROGRAM P
      REAL ACC
      INTEGER N
      ACC = 0.0
      N = 5
      CALL DOWN(N, ACC)
      END

      SUBROUTINE DOWN(N, ACC)
      INTEGER N, M
      REAL ACC, LOC(2)
      LOC(1) = REAL(N)
      IF (N .GT. 0) THEN
        M = N - 1
        CALL DOWN(M, ACC)
        CALL DOWN(0 * N, ACC)
      ENDIF
      ACC = ACC + LOC(1)
      END
`,
		mem:     map[string][]float64{"ACC": {15}, "N": {5}},
		elapsed: 2086000,
	},
	{
		name: "runtime errors fire only when the offending node executes",
		src: `
      PROGRAM P
      REAL A(4), X
      INTEGER I, Z
      Z = 0
      I = 9
      X = 1.0
      IF (X .LT. 0.0) THEN
        A(I) = 1.0
        I = I / Z
        I = MOD(I, Z)
        DO I = 1, 4, Z
        ENDDO
      ENDIF
      I = 7 / Z
      END
`,
		err: "interp: line 0: integer division by zero",
	},
	{
		name: "zero DO step, reached by a jump over a MOD by zero",
		src: `
      PROGRAM P
      INTEGER I, Z
      Z = 0
      IF (Z .EQ. 0) GOTO 10
      I = MOD(7, Z)
10    DO I = 1, 4, Z
      ENDDO
      END
`,
		err: "interp: line 7: DO step is zero",
	},
	{
		name: "MOD by zero",
		src: `
      PROGRAM P
      INTEGER I, Z
      Z = 0
      I = MOD(7, Z)
      END
`,
		err: "interp: line 0: MOD by zero",
	},
	{
		name: "out of bounds write carries its statement's line",
		src: `
      PROGRAM P
      REAL B(2,2)
      INTEGER I
      I = 3
      B(I,2) = 1.0
      END
`,
		err: "interp: line 6: B subscript out of bounds: linear index 4, size 4",
	},
	{
		name: "out of bounds read inside an expression carries line 0",
		src: `
      PROGRAM P
      REAL A(4), X
      INTEGER I
      I = 0
      X = 1.0 + A(2*I)
      END
`,
		err: "interp: line 0: A subscript out of bounds: linear index -1, size 4",
	},
	// Straight-line DO bodies: what the generator's corpus does not
	// reach of a loop whose body is only assignments.
	{
		name: "straight-line loop: store target out of bounds on the last iteration",
		src: `
      PROGRAM P
      REAL A(4), B(5)
      INTEGER I
      DO I = 1, 5
        B(I) = REAL(I)
        A(I) = B(I) * 2.0
      ENDDO
      END
`,
		err: "interp: line 7: A subscript out of bounds: linear index 4, size 4",
	},
	{
		name: "straight-line loop: load out of bounds on the first iteration",
		src: `
      PROGRAM P
      REAL A(4), B(4)
      INTEGER I
      DO I = 0, 3
        A(I+1) = B(I) + 1.0
      ENDDO
      END
`,
		err: "interp: line 0: B subscript out of bounds: linear index -1, size 4",
	},
	{
		name: "straight-line loop: target and load both out of bounds report the target",
		src: `
      PROGRAM P
      REAL A(4), B(4)
      INTEGER I
      DO I = 2, 5
        A(I) = B(I) - 1.0
      ENDDO
      END
`,
		err: "interp: line 6: A subscript out of bounds: linear index 4, size 4",
	},
	{
		name: "straight-line loop: negative step",
		src: `
      PROGRAM P
      REAL A(10), B(10)
      INTEGER I
      DO I = 1, 10
        B(I) = REAL(I)
      ENDDO
      DO I = 10, 2, -3
        A(I) = B(11-I) * 0.5 + A(I)
        A(I-1) = B(I) - 1.0
      ENDDO
      END
`,
		mem: map[string][]float64{
			"A": {0, 0, 3, 3.5, 0, 6, 2, 0, 9, 0.5}, "I": {1},
		},
		elapsed: 944000,
	},
	{
		name: "straight-line loop: zero trips leave the first value in the variable",
		src: `
      PROGRAM P
      REAL A(4)
      INTEGER I, J
      J = 7
      DO I = J, 3
        A(I+100) = 1.0
      ENDDO
      A(1) = REAL(I)
      END
`,
		mem:     map[string][]float64{"A": {7, 0, 0, 0}, "I": {7}},
		elapsed: 62000,
	},
	{
		name: "straight-line loop: the loop variable in two subscripts and read as a value",
		src: `
      PROGRAM P
      REAL A(3,3), X(3)
      INTEGER K
      DO K = 1, 3
        A(K,K) = REAL(K) * 1.5
        X(K) = A(K,K) + REAL(K*K)
      ENDDO
      END
`,
		mem: map[string][]float64{
			"A": {1.5, 0, 0, 0, 3, 0, 0, 0, 4.5}, "X": {2.5, 7, 13.5}, "K": {4},
		},
		elapsed: 480000,
	},
	{
		name: "straight-line loop: indirect subscripts",
		src: `
      PROGRAM P
      REAL X(5), Y(5)
      INTEGER IDX(5), K
      DO K = 1, 5
        IDX(K) = 6 - K
        X(K) = REAL(K)
      ENDDO
      DO K = 1, 5
        Y(K) = X(IDX(K)) * 2.0
        X(IDX(K)) = Y(K) + X(K)
      ENDDO
      END
`,
		mem: map[string][]float64{
			"X": {13, 14, 9, 10, 11}, "Y": {10, 8, 6, 4, 2}, "K": {6},
		},
		elapsed: 1107000,
	},
	{
		name: "straight-line loop: privatised temporaries, one a subscript holding a valid value at entry",
		src: `
      PROGRAM P
      REAL A(6), B(7), T
      INTEGER I, M
      DO I = 1, 6
        A(I) = REAL(I)
      ENDDO
      M = 2
      DO I = 1, 6
        T = A(I) * 2.0
        M = I + 1
        B(M) = T + B(M-1)
      ENDDO
      END
`,
		mem: map[string][]float64{
			"B": {0, 2, 6, 12, 20, 30, 42}, "I": {7}, "M": {7}, "T": {12},
		},
		elapsed: 1033000,
	},
	{
		name: "straight-line loop in a CALLed unit subscripted by a dummy scalar aliasing the array",
		src: `
      PROGRAM P
      REAL A(4,3)
      A(2,1) = 1.0
      CALL BUMP(A, A(2,1))
      END

      SUBROUTINE BUMP(V, N)
      REAL V(4,3)
      INTEGER N, I
      DO I = 1, 4
        V(I,N) = V(I,N) + 1.0
      ENDDO
      END
`,
		mem:     map[string][]float64{"A": {1, 2, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0}},
		elapsed: 430000,
	},
	{
		name: "straight-line loops inside a fine-grain parallel region",
		src: `
      PROGRAM P
      REAL A(8,6), B(8,6), T
      INTEGER I, J
      DO J = 1, 6
        DO I = 1, 8
          A(I,J) = REAL(I + 10*J)
        ENDDO
      ENDDO
      DO J = 2, 6
        DO I = 1, 8
          T = A(I,J-1) * 0.5
          B(I,J) = A(I,J) + T
        ENDDO
      ENDDO
      DO J = 1, 6
        B(1,J) = B(8,J) - A(1,J)
      ENDDO
      PRINT *, B(1,2), B(8,6)
      END
`,
		mem: map[string][]float64{
			"B": {
				-11, 0, 0, 0, 0, 0, 0, 0, 16, 28, 29.5, 31, 32.5, 34, 35.5, 37,
				21, 43, 44.5, 46, 47.5, 49, 50.5, 52, 26, 58, 59.5, 61, 62.5, 64, 65.5, 67,
				31, 73, 74.5, 76, 77.5, 79, 80.5, 82, 36, 88, 89.5, 91, 92.5, 94, 95.5, 97,
			},
			"I": {9}, "J": {7}, "T": {9},
		},
		elapsed: 1431075920,
		out:     "16 97\n",
		procs:   4,
	},
	{
		name: "MOD of the accumulator is no reduction: four ranks print the sequential output",
		src: `
      PROGRAM P
      REAL X(8), S
      INTEGER I
      DO I = 1, 8
        X(I) = REAL(I) + 2.0
      ENDDO
      S = 1000003.0
      DO I = 1, 8
        S = MOD(S, X(I))
      ENDDO
      PRINT *, S
      END
`,
		mem:     map[string][]float64{"S": {1}},
		elapsed: 330829732,
		out:     "1\n",
		procs:   4,
	},
	// Straight-line bodies whose iterations a strip of lanes could
	// reorder, recorded from the tape running one iteration at a time:
	// dependences between iterations, folds whose rounding depends on
	// their order, and aliases a subscript does not show.
	{
		name: "lanes: a loop-carried read and a read ahead of the store",
		src: `
      PROGRAM P
      REAL X(12)
      INTEGER I
      X(1) = 5.0
      DO I = 2, 12
        X(I) = X(I-1) + 1.0
      ENDDO
      DO I = 1, 11
        X(I) = X(I+1)
      ENDDO
      END
`,
		mem:     map[string][]float64{"X": {6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 16}},
		elapsed: 1266000,
	},
	{
		name: "lanes: an element stored every iteration and read back",
		src: `
      PROGRAM P
      REAL A(10), B(10), T(1)
      INTEGER I
      DO I = 1, 10
        A(I) = REAL(I) * 1.5
      ENDDO
      DO I = 1, 10
        T(1) = A(I)
        B(I) = T(1)
      ENDDO
      END
`,
		mem:     map[string][]float64{"B": {1.5, 3, 4.5, 6, 7.5, 9, 10.5, 12, 13.5, 15}, "T": {15}},
		elapsed: 1342000,
	},
	{
		name: "lanes: folds by subtraction and division over three strips",
		src: `
      PROGRAM P
      REAL X(300), S(2)
      INTEGER K
      DO K = 1, 300
        X(K) = 1.0 / REAL(K)
      ENDDO
      S(1) = 1.0
      S(2) = 1.0E10
      DO K = 1, 300
        S(1) = S(1) - X(K)
        S(2) = S(2) / (1.0 + X(K))
      ENDDO
      END
`,
		mem:     map[string][]float64{"S": {-5.282663880299501, 3.3222591362126317e+07}},
		elapsed: 65470000,
	},
	{
		name: "lanes: a target loaded twice is no fold",
		src: `
      PROGRAM P
      REAL C(3), A(6)
      INTEGER I, J
      DO I = 1, 6
        A(I) = REAL(I) * 0.25
      ENDDO
      DO J = 1, 3
        C(J) = REAL(J)
      ENDDO
      DO J = 1, 3
        DO I = 1, 6
          C(J) = C(J) + C(J) * A(I)
        ENDDO
      ENDDO
      END
`,
		mem:     map[string][]float64{"C": {36.9140625, 73.828125, 110.7421875}},
		elapsed: 2580000,
	},
	{
		name: "lanes: a target updated twice in one statement is no fold",
		src: `
      PROGRAM P
      REAL X(5), Y(5), S(1)
      INTEGER K
      DO K = 1, 5
        X(K) = REAL(K) * 0.1
        Y(K) = 0.5
      ENDDO
      S(1) = 1.0
      DO K = 1, 5
        S(1) = S(1) + X(K) - Y(K)
      ENDDO
      END
`,
		mem:     map[string][]float64{"S": {1.1102230246251565e-16}},
		elapsed: 976000,
	},
	{
		name: "lanes: a multiply-add fold a fused multiply-add would round differently",
		src: `
      PROGRAM P
      REAL A(3), B(3), S(1), E
      INTEGER K
      E = 1.0 / 1073741824.0
      A(1) = 1.0 + E
      B(1) = 1.0 + E
      S(1) = -(1.0 + 2.0 * E)
      DO K = 1, 3
        S(1) = S(1) + A(K) * B(K)
      ENDDO
      PRINT *, S(1)
      END
`,
		mem:     map[string][]float64{"S": {0}},
		elapsed: 608000,
		out:     "0\n",
	},
	{
		name: "lanes: folds that overflow to infinity mid-strip",
		src: `
      PROGRAM P
      REAL X(6), Y(6), S(2)
      INTEGER K
      X(1) = 1.0E200
      X(2) = 1.0E200
      X(3) = 1.0E-200
      X(4) = 1.0E-200
      X(5) = -1.0E308
      X(6) = -1.0E308
      Y(1) = 1.0E308
      Y(2) = 1.0E308
      Y(3) = -1.0E308
      Y(4) = -1.0E308
      S(1) = 1.0
      DO K = 1, 6
        S(1) = S(1) * X(K)
        S(2) = S(2) + Y(K)
      ENDDO
      PRINT *, S(1), S(2)
      END
`,
		mem:     map[string][]float64{"S": {math.Inf(1), math.Inf(1)}},
		elapsed: 1159000,
		out:     "+Inf +Inf\n",
	},
	{
		name: "lanes: a negative step with a fold over a stored element",
		src: `
      PROGRAM P
      REAL X(20), Y(20), S(1)
      INTEGER I
      DO I = 1, 20
        X(I) = 1.0 / REAL(I)
      ENDDO
      S(1) = 0.0
      DO I = 20, 2, -2
        Y(I) = X(I) * 3.0 + X(21-I)
        S(1) = S(1) + Y(I)
      ENDDO
      END
`,
		mem: map[string][]float64{
			"S": {6.526707911111936},
			"Y": {
				0, 1.5526315789473684, 0, 0.8088235294117647, 0, 0.5666666666666667, 0, 0.4519230769230769, 0, 0.390909090909091,
				0, 0.3611111111111111, 0, 0.3571428571428571, 0, 0.3875, 0, 0.5, 0, 1.15,
			},
			"I": {0},
		},
		elapsed: 2946000,
	},
	{
		name: "lanes: a fold and a partitioned straight loop in a fine-grain parallel region",
		src: `
      PROGRAM P
      REAL A(40,6), S(40)
      INTEGER I, K
      DO K = 1, 6
        DO I = 1, 40
          A(I,K) = REAL(I) / REAL(K)
        ENDDO
      ENDDO
      DO I = 1, 40
        S(I) = 0.5
      ENDDO
      DO I = 1, 40
        DO K = 1, 6
          S(I) = S(I) + A(I,K)
        ENDDO
      ENDDO
      DO I = 1, 40
        S(I) = S(I) * 2.0 - A(I,3)
      ENDDO
      PRINT *, S(1), S(40)
      END
`,
		mem: map[string][]float64{
			"S": {
				5.566666666666667, 10.133333333333335, 14.7, 19.266666666666666, 23.833333333333332,
				28.4, 32.96666666666667, 37.53333333333333, 42.1, 46.666666666666664,
				51.233333333333334, 55.8, 60.36666666666667, 64.93333333333334, 69.5,
				74.06666666666666, 78.63333333333334, 83.2, 87.76666666666667, 92.33333333333333,
				96.9, 101.46666666666667, 106.03333333333333, 110.6, 115.16666666666667,
				119.73333333333333, 124.30000000000001, 128.86666666666667, 133.43333333333334, 138,
				142.5666666666667, 147.13333333333333, 151.7, 156.26666666666668, 160.83333333333334,
				165.4, 169.96666666666667, 174.53333333333333, 179.1, 183.66666666666666,
			},
		},
		elapsed: 2422680380,
		out:     "5.566666666666667 183.66666666666666\n",
		procs:   4,
	},
	{
		name: "lanes: a tape with too many registers for eight lanes",
		src: `
      PROGRAM P
      REAL A(10), B(10)
      INTEGER I
      DO I = 1, 10
        B(I) = REAL(I) * 0.1
      ENDDO
      DO I = 1, 10
        A(I) = ` + strings.Repeat("B(I)+(", 38) + "B(I)+B(I)" + strings.Repeat(")", 38) + `
      ENDDO
      END
`,
		mem: map[string][]float64{"A": {
			4.000000000000002, 8.000000000000004, 12.000000000000007, 16.000000000000007, 20,
			24.000000000000014, 27.999999999999982, 32.000000000000014, 35.99999999999997, 40,
		}},
		elapsed: 14322000,
	},
	{
		name: "lanes: dummy arrays and a dummy scalar aliasing the stored array",
		src: `
      PROGRAM P
      REAL A(8), B(8)
      INTEGER I
      DO I = 1, 8
        A(I) = REAL(I*I)
        B(I) = REAL(I)
      ENDDO
      CALL SHIFT(A(2), A)
      CALL BUMP(B, B(2))
      END

      SUBROUTINE SHIFT(X, Y)
      INTEGER I
      REAL X(7), Y(7)
      DO I = 1, 7
        X(I) = Y(I) + 1.0
      ENDDO
      END

      SUBROUTINE BUMP(V, S)
      INTEGER I
      REAL V(8), S
      DO I = 1, 8
        V(I) = S + 1.0
      ENDDO
      END
`,
		mem:     map[string][]float64{"A": {1, 2, 3, 4, 5, 6, 7, 8}, "B": {3, 3, 4, 4, 4, 4, 4, 4}},
		elapsed: 1701000,
	},
	{
		name: "lanes: empty bodies, a tape with no code",
		src: `
      PROGRAM P
      INTEGER I, J
      DO I = 1, 3
      ENDDO
      J = I
      DO 10 I = 1, 3
10    CONTINUE
      PRINT *, I, J
      END
`,
		mem:     map[string][]float64{"I": {4}, "J": {4}},
		elapsed: 209000,
		out:     "4 4\n",
	},
	{
		name: "lanes: empty bodies in a fine-grain parallel region",
		src: `
      PROGRAM P
      INTEGER I, J
      DO I = 1, 3
      ENDDO
      J = I
      DO 10 I = 1, 3
10    CONTINUE
      PRINT *, I, J
      END
`,
		mem:     map[string][]float64{"I": {4}, "J": {4}},
		elapsed: 480069096,
		out:     "4 4\n",
		procs:   4,
	},
}

func TestLoweredNodes(t *testing.T) {
	for _, tc := range nodeCases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := f77.Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			var res *Result
			if tc.procs > 0 {
				res = runFine(t, tc.src, tc.procs)
			} else {
				res, err = RunSequential(prog, newCluster(t, 1), Full)
			}
			if tc.err != "" {
				if err == nil || err.Error() != tc.err {
					t.Fatalf("error %v, want %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for name, want := range tc.mem {
				sameArray(t, name, want, res.Mem[name], 0)
			}
			for name := range res.Mem {
				if prog.Main().Syms.Lookup(name) == nil {
					t.Errorf("result memory holds %s, not a symbol of the main unit", name)
				}
			}
			if res.Output != tc.out {
				t.Errorf("output %q, want %q", res.Output, tc.out)
			}
			if res.Elapsed != tc.elapsed {
				t.Errorf("elapsed %d ps, want %d", int64(res.Elapsed), int64(tc.elapsed))
			}
		})
	}
}

// runFine runs src front-ended and translated for procs ranks at fine
// grain, and checks that it prints what the sequential run prints.
func runFine(t *testing.T, src string, procs int) *Result {
	t.Helper()
	pp, err := postpass.Translate(compile(t, src), postpass.Options{NumProcs: procs, Grain: lmad.Fine, LiveOutAll: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunParallel(pp, newCluster(t, procs), Full)
	if err != nil {
		t.Fatal(err)
	}
	if seq := runSeq(t, src, Full); res.Output != seq.Output {
		t.Fatalf("%d ranks print %q, the sequential run %q", procs, res.Output, seq.Output)
	}
	return res
}

// TestLazyArraysAllocateOnFirstTouch: a Timing-mode slave defers its
// arrays; lowered code that does reach one allocates it then, zeroed
// and full-size, and nothing else.
func TestLazyArraysAllocateOnFirstTouch(t *testing.T) {
	prog := compile(t, `
      PROGRAM P
      REAL A(8), B(8), X
      INTEGER I
      I = 3
      X = A(I) + 1.0
      END
`)
	lw := Lower(prog)
	env, err := newEnv(lw, newCluster(t, 2), 1, 1, Timing, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := lw.slots[prog.Main().Syms.Lookup("A")], lw.slots[prog.Main().Syms.Lookup("B")]
	if env.mem[a] != nil || env.mem[b] != nil {
		t.Fatal("a Timing-mode slave allocated its arrays eagerly")
	}
	if c := lw.main.body.exec(env); c != ctrlNormal {
		t.Fatalf("control outcome %d", c)
	}
	if len(env.mem[a]) != 8 || env.mem[b] != nil {
		t.Fatalf("after touching A: len(A) = %d, B allocated = %v", len(env.mem[a]), env.mem[b] != nil)
	}
	if x := env.mem[lw.slots[prog.Main().Syms.Lookup("X")]][0]; x != 1 {
		t.Fatalf("X = %v, want 1 (A zero-filled)", x)
	}
}

// TestChunkPlacement: the nodes of a plan come out of chunks that fill
// the allocator's 4096-byte class, whose slots start on 4096-byte
// boundaries, and where a node sits in its chunk follows from lowering
// order alone — so two lowerings of one program, in heaps of different
// states, place every statement of the hot loop at the same offset
// within its page.
func TestChunkPlacement(t *testing.T) {
	// The allocator puts an 8-byte header before an object this large.
	if size := unsafe.Sizeof(chunk{}) + 8; unsafe.Sizeof(uintptr(0)) == 8 && (size <= 3456 || size > 4096) {
		t.Fatalf("chunk takes %d bytes; it must fall in the 4096-byte size class", size)
	}
	src := `
      PROGRAM P
      REAL A(8,8), B(8,8), C(8,8)
      INTEGER I, J, K
      DO I = 1, 8
        DO J = 1, 8
          DO K = 1, 8
            C(I,J) = C(I,J) + A(I,K) * B(K,J)
          ENDDO
        ENDDO
      ENDDO
      END
`
	var keep [][]byte
	offsets := func() []uintptr {
		lw := Lower(compile(t, src))
		if _, err := lw.RunSequential(newCluster(t, 1), Full); err != nil {
			t.Fatal(err)
		}
		var out []uintptr
		var walk func(b *block)
		walk = func(b *block) {
			out = append(out, uintptr(unsafe.Pointer(b))&4095)
			for _, s := range b.run {
				out = append(out, uintptr(unsafe.Pointer(s.node))&4095)
				if s.l != nil {
					walk(s.l.block())
				} else if s.x != nil {
					out = append(out, uintptr(unsafe.Pointer(s.x))&4095)
				}
			}
		}
		walk(lw.main.body)
		return append(out, uintptr(unsafe.Pointer(lw.cur))&4095)
	}
	first := offsets()
	// Leave holes of many sizes in the heap before lowering again.
	for i := 0; i < 20000; i++ {
		b := make([]byte, 16+16*(i%12))
		if i%3 == 0 {
			keep = append(keep, b)
		}
	}
	runtime.GC()
	second := offsets()
	if len(first) < 8 || !reflect.DeepEqual(first, second) {
		t.Fatalf("node offsets differ between two lowerings:\n%v\n%v", first, second)
	}
	runtime.KeepAlive(keep)
}

// TestScalarBlocksKeepTheirCacheLines: the ranks of a run store their
// loop variables on every iteration, so no scalar of one rank may share
// a 64-byte line with a scalar of another, however the allocator packs
// the blocks.
func TestScalarBlocksKeepTheirCacheLines(t *testing.T) {
	prog := compile(t, `
      PROGRAM P
      INTEGER I, J, K
      I = 1
      END
`)
	lw := Lower(prog)
	cl := newCluster(t, 8)
	lines := map[uintptr]int{}
	var envs []*Env // all alive at once, as in a run
	for rank := 0; rank < 8; rank++ {
		env, err := newEnv(lw, cl, rank, rank, Full, nil, *lw.frame(false))
		if err != nil {
			t.Fatal(err)
		}
		envs = append(envs, env)
		for _, name := range []string{"I", "J", "K"} {
			line := uintptr(unsafe.Pointer(&env.mem[lw.slots[prog.Main().Syms.Lookup(name)]][0])) / 64
			if other, taken := lines[line]; taken && other != rank {
				t.Fatalf("ranks %d and %d have scalars on one cache line", other, rank)
			}
			lines[line] = rank
		}
	}
	runtime.KeepAlive(envs)
}

// TestTapeShapes: which loops run on a tape, and which of their parts
// become cursors and which stay ordinary nodes. Each case's body is
// the inner loop of DO I / DO K.
func TestTapeShapes(t *testing.T) {
	for _, tc := range []struct {
		name, decl, body string
		straight         bool
		// cursors and values count the tape's array cursors and affine
		// INTEGER values, nodes its node and statement instructions.
		cursors, values, nodes int
	}{
		{"the MM kernel", "REAL A(4,4), B(4,4), C(4,4)\n      INTEGER I, J, K",
			"C(I,J) = C(I,J) + A(I,K) * B(K,J)", true, 3, 0, 0},
		{"one element read and written is one cursor", "REAL S(2), X(4)\n      INTEGER K",
			"S(1) = S(1) + X(K)", true, 2, 0, 0},
		{"the variable twice in a reference, REAL of it a value", "REAL A(4,4)\n      INTEGER K",
			"A(K,K) = REAL(K) * 1.5", true, 1, 1, 0},
		{"an indirect subscript is a node", "REAL X(4), Y(4)\n      INTEGER IDX(4), K",
			"Y(K) = X(IDX(K)) * 2.0", true, 1, 0, 1},
		{"a subscript the body writes keeps its statement", "REAL B(9), T\n      INTEGER I, M",
			"T = B(I)\n        M = I + 1\n        B(M) = T + B(M-1)", true, 1, 1, 1},
		{"an intrinsic is an instruction, its argument a cursor", "REAL A(4)\n      INTEGER N(4), I",
			"N(K) = SQRT(A(K)) + 0.5", true, 2, 0, 0},
		{"REAL of a product of variables is a node", "REAL A(4)\n      INTEGER I",
			"A(K) = REAL(I*K) + REAL(2*(I-K)+3)", true, 1, 1, 1},
		{"a two-argument intrinsic is a node", "REAL A(4)\n      INTEGER I",
			"A(K) = MOD(A(K), 2.0) + ATAN(REAL(I))", true, 1, 1, 1},
		{"an IF is not straight", "REAL A(4)\n      INTEGER I",
			"IF (A(I) .GT. 0.0) A(I) = 0.0", false, 0, 0, 0},
		{"a COMMON loop variable is not straight", "REAL A(4)\n      INTEGER K\n      COMMON /C/ K",
			"A(K) = 1.0", false, 0, 0, 0},
		{"a COMMON store is not straight", "REAL A(4), S\n      INTEGER I\n      COMMON /C/ S",
			"S = A(I)", false, 0, 0, 0},
		{"a user function is not straight", "REAL A(4)\n      INTEGER I",
			"A(I) = F(A(I))", false, 0, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := f77.Parse("\n      PROGRAM P\n      " + tc.decl +
				"\n      DO I = 1, 4\n      DO K = 1, 4\n        " + tc.body + "\n      ENDDO\n      ENDDO\n      END\n" +
				"\n      REAL FUNCTION F(X)\n      REAL X\n      F = X\n      END\n")
			if err != nil {
				t.Fatal(err)
			}
			var l *loop
			for _, outer := range Lower(prog).topLoops {
				l = outer.inner[0]
			}
			if l.straight != tc.straight {
				t.Fatalf("straight = %v, want %v", l.straight, tc.straight)
			}
			if !l.straight {
				return
			}
			cursors, values, nodes := 0, 0, 0
			for _, in := range l.code().code {
				if in.op == opNode || in.op == opStmt {
					nodes++
				}
			}
			for _, r := range l.tape.refs {
				if r.slot < 0 {
					values++
				} else {
					cursors++
				}
			}
			if cursors != tc.cursors || values != tc.values || nodes != tc.nodes {
				t.Errorf("%d cursors, %d values and %d node instructions, want %d, %d and %d",
					cursors, values, nodes, tc.cursors, tc.values, tc.nodes)
			}
		})
	}
}

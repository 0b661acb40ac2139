package interp

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"vbuscluster/internal/f77"
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
}

func TestLoweredNodes(t *testing.T) {
	for _, tc := range nodeCases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := f77.Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunSequential(prog, newCluster(t, 1), Full)
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
	env, err := newEnv(lw, newCluster(t, 2), 1, Timing, nil)
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
		env, err := newEnv(lw, cl, rank, Full, nil)
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

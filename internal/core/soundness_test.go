package core

import (
	"fmt"
	"testing"

	"vbuscluster/internal/lmad"
)

// soundnessCases are programs whose parallel runs once went wrong, each
// beside what four ranks then did. A parallel run must print what the
// sequential run prints, or return the error it returns, at every
// grain, pushing, pulling or two-sided.
var soundnessCases = []struct {
	name, src string
	out, err  string // the sequential run's output or error text
	parErr    string // the parallel run's error text, when err is set
	runs      int    // parallel runs, where a race shows only in some
}{
	{
		// The Access Region Test tried distances only up to the sum of
		// the two regions' widths, here 0, so it missed the distance-2
		// flow dependence and marked the loop parallel: four ranks
		// printed "2 12" at every grain.
		name: "a distance-2 recurrence between one-element regions",
		src: `
      PROGRAM DIST
      REAL A(100)
      INTEGER I
      DO I = 1, 100
        A(I) = 0.0
      ENDDO
      DO I = 1, 90
        A(I+2) = A(I) + 1.0
      ENDDO
      PRINT *, A(51), A(92)
      END
`,
		out: "25 45\n",
	},
	{
		// Rank 3's share of the second loop reads A(99) to A(126): the
		// scatter's copy into a 100-element window panicked in mpi
		// ("CopySpans "A" rank 3 [98,126) outside window size 100") and
		// the process died with a Go stack, at every grain.
		name: "a subscript out of bounds on one rank's share",
		src: `
      PROGRAM OOB
      REAL A(100), B(40)
      INTEGER I
      DO I = 1, 100
        A(I) = REAL(I)
      ENDDO
      DO I = 1, 40
        B(I) = A(3*I+6)
      ENDDO
      PRINT *, B(1), B(40)
      END
`,
		err:    "interp: line 0: A subscript out of bounds: linear index 101, size 100",
		parErr: "interp: line 8: A subscript out of bounds: rank 3's share reaches linear indices 98 to 125, size 100",
	},
	{
		// DO I was tested on iteration I = 1's one-element region of
		// the triangle and marked parallel: four ranks printed "0 0"
		// at every grain.
		name: "a triangle whose first iteration touches one element",
		src: `
      PROGRAM TRI
      REAL A(40)
      INTEGER I, J
      DO I = 1, 40
        A(I) = 0.0
      ENDDO
      DO I = 1, 10
        DO J = 1, I
          A(2*I+J) = A(2*I+J) + REAL(I)
        ENDDO
      ENDDO
      PRINT *, A(9), A(11)
      END
`,
		out: "7 9\n",
	},
	{
		// DO J was marked parallel, tested with I pinned to 1. Only a
		// top-level loop runs on the ranks, so four ranks printed the
		// right answer all the same; the analysis row
		// (TestDependenceReproducersSerial) is the one that failed.
		name: "an inner loop whose enclosing coefficients differ",
		src: `
      PROGRAM OUTER
      REAL A(40)
      INTEGER I, J
      DO I = 1, 40
        A(I) = REAL(I)
      ENDDO
      DO I = 1, 4
        DO J = 1, 10
          A(2*J) = A(2*J+I) + 1.0
        ENDDO
      ENDDO
      PRINT *, A(2), A(20)
      END
`,
		out: "11 25\n",
	},
	{
		// The triangle's write was WriteFirst, so each rank collected
		// the whole hull of its columns, M(1..I-1,I) included, which it
		// never wrote: four ranks printed "0 1" at every grain.
		name: "a write-only triangle over set values",
		src: `
      PROGRAM WTRI
      REAL M(10,10)
      INTEGER I, J
      DO I = 1, 10
        DO J = 1, 10
          M(J,I) = 7.0
        ENDDO
      ENDDO
      DO I = 1, 10
        DO J = I, 10
          M(J,I) = 1.0
        ENDDO
      ENDDO
      PRINT *, M(1,10), M(10,10)
      END
`,
		out: "7 1\n",
	},
	{
		// A one-trip loop was a parallel region, and every rank without
		// its iteration still collected X(53): at coarse grain the
		// master's copy depended on the order of arrival, and six runs
		// printed 3, 3, 0, 14.5, 0 and 14.5.
		name: "a one-trip loop storing one element",
		src: `
      PROGRAM ONE
      REAL X(64)
      INTEGER I
      DO I = 1, 64
        X(I) = 14.5
      ENDDO
      DO I = 3, 3
        X(53) = REAL(I)
      ENDDO
      PRINT *, X(53)
      END
`,
		out:  "3\n",
		runs: 8,
	},
}

func TestParallelMatchesSequentialOnSoundnessCases(t *testing.T) {
	for _, tc := range soundnessCases {
		for _, grain := range []lmad.Grain{lmad.Fine, lmad.Middle, lmad.Coarse} {
			for _, mode := range []string{"push", "pull", "two-sided"} {
				t.Run(fmt.Sprintf("%s/%v/%s", tc.name, grain, mode), func(t *testing.T) {
					c, err := Compile(tc.src, Options{NumProcs: 4, Grain: grain,
						PullScatter: mode == "pull", TwoSided: mode == "two-sided"})
					if err != nil {
						t.Fatal(err)
					}
					seq, err := c.RunSequential(Full)
					if tc.err != "" {
						if err == nil || err.Error() != tc.err {
							t.Fatalf("sequential error %v, want %q", err, tc.err)
						}
						if _, err := c.RunParallel(Full); err == nil || err.Error() != tc.parErr {
							t.Fatalf("parallel error %v, want %q", err, tc.parErr)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if seq.Output != tc.out {
						t.Fatalf("sequential output %q, want %q", seq.Output, tc.out)
					}
					for range max(tc.runs, 1) {
						par, err := c.RunParallel(Full)
						if err != nil {
							t.Fatal(err)
						}
						if par.Output != tc.out {
							t.Fatalf("four ranks print %q, the sequential run %q", par.Output, tc.out)
						}
					}
				})
			}
		}
	}
}

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
					par, err := c.RunParallel(Full)
					if err != nil {
						t.Fatal(err)
					}
					if par.Output != tc.out {
						t.Errorf("four ranks print %q, the sequential run %q", par.Output, tc.out)
					}
				})
			}
		}
	}
}

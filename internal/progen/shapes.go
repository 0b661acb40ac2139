package progen

// Shape is one fixed program the generator does not produce on its
// own, named for the edge of the rank partition it exercises.
type Shape struct{ Name, Src string }

// Shapes are three edges every per-rank oracle must hold on besides
// the kernels and generated programs: a downward loop, over a block
// partition and a triangular (cyclic) one; a trip count no rank count
// divides; and a coarse array read both partitioned and replicated in
// one region.
var Shapes = []Shape{
	{"reversed", `
      PROGRAM REVD
      INTEGER N
      PARAMETER (N = 19)
      REAL A(N,N), B(N,N)
      INTEGER I, J
      DO J = 1, N
        DO I = 1, N
          A(I,J) = REAL(I) + REAL(J) * 0.5
        ENDDO
      ENDDO
      DO J = N, 1, -1
        DO I = 1, N
          B(I,J) = A(I,J) * 2.0
        ENDDO
      ENDDO
      DO J = N, 1, -1
        DO I = J, N
          A(I,J) = B(I,J) + 1.0
        ENDDO
      ENDDO
      PRINT *, A(1,1), B(N,N)
      END
`},
	{"uneven", `
      PROGRAM UNEVEN
      INTEGER N
      PARAMETER (N = 13)
      REAL A(3*N), B(N,N)
      INTEGER I, J
      DO I = 1, 3*N
        A(I) = REAL(I)
      ENDDO
      DO J = 1, N
        DO I = 1, N
          B(I,J) = A(I+J) * 0.5 + A(3*J)
        ENDDO
      ENDDO
      PRINT *, B(1,1), B(N,N)
      END
`},
	{"mixed", `
      PROGRAM MIXED
      INTEGER N
      PARAMETER (N = 17)
      REAL A(N,N), B(N,N)
      INTEGER I, J
      DO J = 1, N
        DO I = 1, N
          A(I,J) = REAL(I) - REAL(J)
        ENDDO
      ENDDO
      DO J = 1, N
        DO I = 1, N
          B(I,J) = A(I,J) + A(I,1)
        ENDDO
      ENDDO
      PRINT *, B(1,1), B(N,N)
      END
`},
}

package f77

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lexAll reads src's tokens with Next alone, up to and including EOF
// or the first error.
func lexAll(src string) ([]Token, error) {
	lx := NewLexer(src)
	var out []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return out, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}

// TestLexerLookahead holds Peek to the plain token stream: before each
// Next, Peek(0..k) (k cycling 0..3) must return the tokens Next is
// about to return, and Next must then return the stream unchanged.
func TestLexerLookahead(t *testing.T) {
	files, err := filepath.Glob("../../testdata/*.f")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		want, err := lexAll(string(src))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		// Past the end the lexer keeps returning EOF.
		at := func(i int) Token {
			if i >= len(want) {
				return want[len(want)-1]
			}
			return want[i]
		}
		lx := NewLexer(string(src))
		for i := 0; i < len(want); i++ {
			for j := 0; j <= i%4; j++ {
				got, err := lx.Peek(j)
				if err != nil {
					t.Fatalf("%s: token %d Peek(%d): %v", file, i, j, err)
				}
				if got != at(i+j) {
					t.Fatalf("%s: token %d Peek(%d) = %v at %d:%d, want %v at %d:%d",
						file, i, j, got, got.Line, got.Col, at(i+j), at(i+j).Line, at(i+j).Col)
				}
			}
			got, err := lx.Next()
			if err != nil {
				t.Fatalf("%s: token %d Next: %v", file, i, err)
			}
			if got != want[i] {
				t.Fatalf("%s: token %d Next = %v at %d:%d, want %v at %d:%d",
					file, i, got, got.Line, got.Col, want[i], want[i].Line, want[i].Col)
			}
		}
	}
}

// TestLexerQueueAllocs holds the look-ahead queue to one backing array:
// lexing with Peek interleaved costs what plain Next lexing costs plus
// a small constant, and lexing a source repeated 8× costs at most 8×
// lexing it once plus that constant, not one reallocation per token.
func TestLexerQueueAllocs(t *testing.T) {
	src, err := os.ReadFile("../../testdata/jacobi.f")
	if err != nil {
		t.Fatal(err)
	}
	lex := func(src string, lookahead bool) float64 {
		return testing.AllocsPerRun(10, func() {
			lx := NewLexer(src)
			for i := 0; ; i++ {
				for j := 0; lookahead && j <= i%4; j++ {
					if _, err := lx.Peek(j); err != nil {
						t.Fatal(err)
					}
				}
				tok, err := lx.Next()
				if err != nil {
					t.Fatal(err)
				}
				if tok.Kind == TokEOF {
					return
				}
			}
		})
	}
	const slack = 4
	one, eight := string(src), strings.Repeat(string(src), 8)
	once, repeated, plain := lex(one, true), lex(eight, true), lex(eight, false)
	if repeated > plain+slack {
		t.Errorf("look-ahead lexing of 8 copies: %.0f allocations, plain lexing %.0f", repeated, plain)
	}
	if repeated > 8*once+slack {
		t.Errorf("look-ahead lexing: %.0f allocations for 8 copies, %.0f for one", repeated, once)
	}
}

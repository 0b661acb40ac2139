package f77

import (
	"strings"
)

// Lexer tokenizes Fortran 77 source. Keywords are not distinguished at
// the lexical level (Fortran has no reserved words); the parser decides
// from context. Comment lines start with 'C', 'c', '*' in column one or
// '!' anywhere; both styles are accepted. A trailing '&' joins the next
// line.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
	// peeks is the look-ahead queue. Next shifts it down in place, so
	// one backing array serves the whole source.
	peeks []Token
}

// NewLexer builds a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (lx *Lexer) at(off int) byte {
	if lx.pos+off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+off]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
func isLetter(c byte) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' }
func isIdent(c byte) bool  { return isLetter(c) || isDigit(c) }

// atLineStart reports whether the lexer is at column 1.
func (lx *Lexer) atLineStart() bool { return lx.col == 1 }

// skipToEOL consumes the rest of the current line, excluding the
// newline itself.
func (lx *Lexer) skipToEOL() {
	for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
		lx.advance()
	}
}

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	if len(lx.peeks) > 0 {
		t := lx.peeks[0]
		lx.peeks = lx.peeks[:copy(lx.peeks, lx.peeks[1:])]
		return t, nil
	}
	return lx.scan()
}

// Peek returns the i-th upcoming token (0 = next) without consuming.
func (lx *Lexer) Peek(i int) (Token, error) {
	for len(lx.peeks) <= i {
		t, err := lx.scan()
		if err != nil {
			return Token{}, err
		}
		lx.peeks = append(lx.peeks, t)
	}
	return lx.peeks[i], nil
}

func (lx *Lexer) scan() (Token, error) {
	for {
		if lx.pos >= len(lx.src) {
			return Token{Kind: TokEOF, Line: lx.line, Col: lx.col}, nil
		}
		c := lx.at(0)
		// Comment line: C/c/* in column 1, or ! anywhere.
		if lx.atLineStart() && (c == 'C' || c == 'c' || c == '*') {
			// Only a comment if followed by whitespace or text that is
			// not an assignment — classic F77 treats the whole line as
			// comment. We require the conservative form: 'C' or '*'
			// followed by space/EOL, or 'c' likewise, to avoid eating
			// identifiers in free-form code.
			nxt := lx.at(1)
			if nxt == ' ' || nxt == '\t' || nxt == '\n' || nxt == 0 || c == '*' {
				lx.skipToEOL()
				continue
			}
		}
		if c == '!' {
			// Directive comments (!$... / CSRD$ style) are surfaced as
			// special tokens by the parser via PeekDirective; plain
			// comments are skipped. Here we hand the whole line to the
			// directive scanner.
			if tok, ok := lx.scanDirective(); ok {
				return tok, nil
			}
			lx.skipToEOL()
			continue
		}
		switch {
		case c == '\n':
			// Leading continuation: a line whose first non-blank
			// character is '&' (the classic column-6 marker) continues
			// the previous statement, so the newline is suppressed.
			j := lx.pos + 1
			for j < len(lx.src) && (lx.src[j] == ' ' || lx.src[j] == '\t' || lx.src[j] == '\r') {
				j++
			}
			if j < len(lx.src) && lx.src[j] == '&' {
				for lx.pos <= j {
					lx.advance()
				}
				continue
			}
			t := Token{Kind: TokNewline, Line: lx.line, Col: lx.col}
			lx.advance()
			return t, nil
		case c == ' ' || c == '\t' || c == '\r':
			lx.advance()
			continue
		case c == '&':
			// Continuation: join with next line.
			lx.advance()
			lx.skipToEOL()
			if lx.pos < len(lx.src) {
				lx.advance() // the newline
			}
			continue
		}
		break
	}

	line, col := lx.line, lx.col
	c := lx.at(0)

	switch {
	case isDigit(c) || (c == '.' && isDigit(lx.at(1))):
		return lx.scanNumber(line, col)
	case c == '.':
		return lx.scanDotOp(line, col)
	case isLetter(c):
		start := lx.pos
		for lx.pos < len(lx.src) && isIdent(lx.at(0)) {
			lx.advance()
		}
		return Token{Kind: TokIdent, Text: strings.ToUpper(lx.src[start:lx.pos]), Line: line, Col: col}, nil
	case c == '\'':
		lx.advance()
		start := lx.pos
		for lx.pos < len(lx.src) && lx.at(0) != '\'' && lx.at(0) != '\n' {
			lx.advance()
		}
		if lx.at(0) != '\'' {
			return Token{}, errf(line, col, "unterminated string literal")
		}
		text := lx.src[start:lx.pos]
		lx.advance()
		return Token{Kind: TokString, Text: text, Line: line, Col: col}, nil
	}

	lx.advance()
	switch c {
	case '+':
		return Token{Kind: TokPlus, Line: line, Col: col}, nil
	case '-':
		return Token{Kind: TokMinus, Line: line, Col: col}, nil
	case '*':
		if lx.at(0) == '*' {
			lx.advance()
			return Token{Kind: TokPower, Line: line, Col: col}, nil
		}
		return Token{Kind: TokStar, Line: line, Col: col}, nil
	case '/':
		if lx.at(0) == '=' { // tolerate C-style /= as .NE.
			lx.advance()
			return Token{Kind: TokNE, Line: line, Col: col}, nil
		}
		return Token{Kind: TokSlash, Line: line, Col: col}, nil
	case '(':
		return Token{Kind: TokLParen, Line: line, Col: col}, nil
	case ')':
		return Token{Kind: TokRParen, Line: line, Col: col}, nil
	case ',':
		return Token{Kind: TokComma, Line: line, Col: col}, nil
	case '=':
		if lx.at(0) == '=' { // tolerate == as .EQ.
			lx.advance()
			return Token{Kind: TokEQ, Line: line, Col: col}, nil
		}
		return Token{Kind: TokEq, Line: line, Col: col}, nil
	case ':':
		return Token{Kind: TokColon, Line: line, Col: col}, nil
	case '<':
		if lx.at(0) == '=' {
			lx.advance()
			return Token{Kind: TokLE, Line: line, Col: col}, nil
		}
		return Token{Kind: TokLT, Line: line, Col: col}, nil
	case '>':
		if lx.at(0) == '=' {
			lx.advance()
			return Token{Kind: TokGE, Line: line, Col: col}, nil
		}
		return Token{Kind: TokGT, Line: line, Col: col}, nil
	}
	return Token{}, errf(line, col, "unexpected character %q", string(rune(c)))
}

// scanDirective recognizes "!$PAR PARALLEL"-style directive lines and
// returns them as an identifier token "!$PAR" followed by normal
// tokens. Plain '!' comments return ok=false.
func (lx *Lexer) scanDirective(line ...int) (Token, bool) {
	// At '!': check for "!$".
	if lx.at(1) != '$' {
		return Token{}, false
	}
	l, c := lx.line, lx.col
	lx.advance() // !
	lx.advance() // $
	start := lx.pos
	for lx.pos < len(lx.src) && isIdent(lx.at(0)) {
		lx.advance()
	}
	word := strings.ToUpper(lx.src[start:lx.pos])
	return Token{Kind: TokIdent, Text: "!$" + word, Line: l, Col: c}, true
}

func (lx *Lexer) scanNumber(line, col int) (Token, error) {
	start := lx.pos
	kind := TokInt
	for lx.pos < len(lx.src) && isDigit(lx.at(0)) {
		lx.advance()
	}
	// Fractional part — careful not to eat dot-operators like "1.AND.".
	if lx.at(0) == '.' {
		isOp := false
		for _, op := range []string{".AND.", ".OR.", ".NOT.", ".EQ.", ".NE.", ".LT.", ".LE.", ".GT.", ".GE.", ".TRUE.", ".FALSE."} {
			if lx.pos+len(op) <= len(lx.src) && strings.EqualFold(lx.src[lx.pos:lx.pos+len(op)], op) {
				isOp = true
				break
			}
		}
		if !isOp {
			kind = TokReal
			lx.advance()
			for lx.pos < len(lx.src) && isDigit(lx.at(0)) {
				lx.advance()
			}
		}
	}
	// Exponent: E/D +- digits.
	if c := lx.at(0); c == 'e' || c == 'E' || c == 'd' || c == 'D' {
		off := 1
		if s := lx.at(1); s == '+' || s == '-' {
			off = 2
		}
		if isDigit(lx.at(off)) {
			kind = TokReal
			for i := 0; i < off; i++ {
				lx.advance()
			}
			for lx.pos < len(lx.src) && isDigit(lx.at(0)) {
				lx.advance()
			}
		}
	}
	text := lx.src[start:lx.pos]
	// Normalize D exponents to E for strconv.
	text = strings.Map(func(r rune) rune {
		if r == 'd' || r == 'D' {
			return 'E'
		}
		return r
	}, text)
	return Token{Kind: kind, Text: text, Line: line, Col: col}, nil
}

func (lx *Lexer) scanDotOp(line, col int) (Token, error) {
	ops := []struct {
		text string
		kind TokKind
	}{
		{".FALSE.", TokFalse}, {".TRUE.", TokTrue},
		{".AND.", TokAND}, {".NOT.", TokNOT}, {".OR.", TokOR},
		{".EQ.", TokEQ}, {".NE.", TokNE}, {".LE.", TokLE},
		{".LT.", TokLT}, {".GE.", TokGE}, {".GT.", TokGT},
	}
	for _, op := range ops {
		if lx.pos+len(op.text) <= len(lx.src) && strings.EqualFold(lx.src[lx.pos:lx.pos+len(op.text)], op.text) {
			for i := 0; i < len(op.text); i++ {
				lx.advance()
			}
			return Token{Kind: op.kind, Line: line, Col: col}, nil
		}
	}
	return Token{}, errf(line, col, "unknown dot-operator")
}

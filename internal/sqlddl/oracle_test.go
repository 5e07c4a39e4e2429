package sqlddl

import "strings"

// This file keeps the tokenize-everything parse path as the differential
// oracle for Session.ParseUnits: a byte-at-a-time lexer that tracks line
// and column as it advances, a split on depth-0 semicolon tokens, and a
// fresh parse of every statement's token window with no statement cache.
// Its positions are true script positions by construction — each token's
// line and column are recorded as the lexer reaches it — so it also pins
// the re-basing of cached errors and the offset-to-position mapping.

// OracleParseUnits parses src the reference way under s's dialect,
// using s only for its parser and intern table.
func OracleParseUnits(s *Session, src string) []Unit {
	lx := oracleLexer{src: src, line: 1, col: 1, prof: s.tab.prof}
	var toks []Token
	var ends []int          // ends[i] is the byte offset just past token i
	pos := map[int][2]int{} // token offset -> line and column
	for {
		t := lx.Next()
		toks = append(toks, t)
		ends = append(ends, lx.pos)
		pos[t.Off] = [2]int{lx.tokLine, lx.tokCol}
		if t.Kind == EOF {
			break
		}
	}
	var units []Unit
	depth, start, lastEnd, unitTok := 0, 0, 0, 0
	flush := func(end, tokHi int) {
		if text := strings.TrimSpace(src[start:end]); text != "" {
			stmt, err, off := s.parseTokens(toks[unitTok:tokHi], len(units), text)
			if err != nil {
				err.Line, err.Col = pos[off][0], pos[off][1]
			}
			units = append(units, Unit{Text: text, Stmt: stmt, Err: err})
		}
	}
	for i := range toks {
		switch toks[i].Kind {
		case EOF:
			flush(lastEnd, i+1)
			return units
		case LParen:
			depth++
		case RParen:
			if depth > 0 {
				depth--
			}
		case Semi:
			if depth == 0 {
				// The separator becomes this unit's EOF terminator.
				toks[i] = Token{Kind: EOF, Off: toks[i].Off}
				flush(lastEnd, i+1)
				start = ends[i]
				unitTok = i + 1
			}
		}
		lastEnd = ends[i]
	}
	return units
}

type oracleLexer struct {
	src       string
	pos       int
	line, col int
	prof      LexProfile
	// tokLine and tokCol locate the last token returned.
	tokLine, tokCol int
}

func (lx *oracleLexer) peek() byte { return lx.peekAt(0) }

func (lx *oracleLexer) peekAt(off int) byte {
	if lx.pos+off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+off]
}

func (lx *oracleLexer) advance() byte {
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

func (lx *oracleLexer) skipSpaceAndComments() {
	for lx.pos < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' || c == '\f':
			lx.advance()
		case c == '-' && lx.peekAt(1) == '-', c == '#' && !lx.prof.NoHashComment:
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peekAt(1) == '*':
			lx.advance()
			lx.advance()
			for lx.pos < len(lx.src) {
				if lx.peek() == '*' && lx.peekAt(1) == '/' {
					lx.advance()
					lx.advance()
					break
				}
				lx.advance()
			}
		default:
			return
		}
	}
}

func (lx *oracleLexer) Next() Token {
	lx.skipSpaceAndComments()
	t := Token{Off: lx.pos}
	lx.tokLine, lx.tokCol = lx.line, lx.col
	if lx.pos >= len(lx.src) {
		return t
	}
	start := lx.pos
	c := lx.peek()
	switch {
	case (c == 'E' || c == 'e') && lx.prof.EscapeStrings && lx.peekAt(1) == '\'':
		lx.advance()
		t.Kind, t.Text = String, lx.quoted('\'', true)
	case c == '$' && lx.prof.Dollar && lx.dollarQuoteAhead():
		lx.advance()
		for lx.peek() != '$' {
			lx.advance()
		}
		lx.advance()
		tag := lx.src[start:lx.pos]
		t.Kind, t.Text = String, lx.src[lx.pos:]
		for bodyStart := lx.pos; lx.pos < len(lx.src); lx.advance() {
			if strings.HasPrefix(lx.src[lx.pos:], tag) {
				t.Text = lx.src[bodyStart:lx.pos]
				for range len(tag) {
					lx.advance()
				}
				break
			}
		}
	case isIdentStart(c):
		for lx.pos < len(lx.src) && isIdentPart(lx.peek()) {
			lx.advance()
		}
		t.Kind, t.Text = Ident, lx.src[start:lx.pos]
		t.kw = lookupKeyword(t.Text)
	case isDigit(c) || (c == '.' && isDigit(lx.peekAt(1))):
		seenDot := false
		for lx.pos < len(lx.src) {
			c := lx.peek()
			if isDigit(c) {
				lx.advance()
				continue
			}
			if c == '.' && !seenDot && isDigit(lx.peekAt(1)) {
				seenDot = true
				lx.advance()
				continue
			}
			if (c == 'e' || c == 'E') && (isDigit(lx.peekAt(1)) ||
				((lx.peekAt(1) == '+' || lx.peekAt(1) == '-') && isDigit(lx.peekAt(2)))) {
				lx.advance()
				lx.advance()
				continue
			}
			break
		}
		t.Kind, t.Text = Number, lx.src[start:lx.pos]
	case c == '\'':
		t.Kind, t.Text = String, lx.quoted('\'', !lx.prof.NoBackslashEscape)
	case c == '"':
		t.Kind, t.Text = QuotedIdent, lx.quoted('"', false)
	case c == '`' && !lx.prof.NoBacktick:
		t.Kind, t.Text = QuotedIdent, lx.quoted('`', false)
	case c == '[' && !lx.prof.NoBracket:
		t.Kind, t.Text = QuotedIdent, lx.quoted(']', false)
	case c == '(':
		lx.advance()
		t.Kind, t.Text = LParen, "("
	case c == ')':
		lx.advance()
		t.Kind, t.Text = RParen, ")"
	case c == ',':
		lx.advance()
		t.Kind, t.Text = Comma, ","
	case c == ';':
		lx.advance()
		t.Kind, t.Text = Semi, ";"
	case c == '.':
		lx.advance()
		t.Kind, t.Text = Dot, "."
	default:
		lx.advance()
		t.Kind, t.Text = Op, string(rune(c))
		for _, two := range []string{"<=", "<>", ">=", "!=", "::", "||"} {
			if two[0] == c && lx.peek() == two[1] {
				lx.advance()
				t.Text = two
				break
			}
		}
	}
	return t
}

func (lx *oracleLexer) dollarQuoteAhead() bool {
	j := 1
	for isIdentPart(lx.peekAt(j)) && lx.peekAt(j) != '$' {
		j++
	}
	return lx.peekAt(j) == '$'
}

// quoted scans a literal or quoted identifier from its opening delimiter:
// a doubled close byte stands for itself, and with backslash set (string
// literals outside PostgreSQL and SQLite, and E'...' strings) a backslash
// escapes the next byte. An unterminated one runs to the end.
func (lx *oracleLexer) quoted(close byte, backslash bool) string {
	lx.advance()
	var buf []byte
	for lx.pos < len(lx.src) {
		c := lx.advance()
		switch {
		case c == close && lx.peek() == close:
			lx.advance()
		case c == close:
			return string(buf)
		case c == '\\' && backslash && lx.pos < len(lx.src):
			c = lx.advance()
		}
		buf = append(buf, c)
	}
	return string(buf)
}

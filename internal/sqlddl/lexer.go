package sqlddl

import (
	"fmt"
	"strings"
)

// Lexer turns a DDL script into a stream of tokens. It tolerates the
// comment and quoting syntax of the common open-source dialects:
//
//   - line comments:  -- ...  and  # ...
//   - block comments: /* ... */ (non-nesting, MySQL hint comments included)
//   - string literals: 'it”s' with doubled-quote and backslash escapes
//   - quoted identifiers: "postgres", `mysql`, [mssql]
//
// The lexer never fails: malformed input (e.g. an unterminated string)
// yields a final token covering the rest of the input, and the parser
// decides how much of the statement is salvageable.
//
// Where each element starts and ends is decided by skipBlank and
// lexemeAt, which the statement boundary scan (stmtScanner) shares, so
// both read every dialect's quoting and comment rules from one place.
type Lexer struct {
	src string
	pos int
	// lines maps token offsets to line and column; it counts newlines
	// only up to the tokens actually emitted.
	lines lineCursor
	// prof selects the dialect's quoting and comment syntax; the zero
	// value is the generic union above.
	prof LexProfile
	// scratch backs the unescaping slow path of string and quoted-identifier
	// tokens; the common escape-free case slices src directly instead.
	scratch []byte
}

// NewLexer returns a lexer over src using the generic union profile.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, lines: startOfScript}
}

// NewLexerProfile returns a lexer over src with a dialect lex profile.
func NewLexerProfile(src string, prof LexProfile) *Lexer {
	return &Lexer{src: src, lines: startOfScript, prof: prof}
}

// Reset re-points the lexer at src, keeping the profile and reusing the
// scratch buffer — re-lexing many inputs through one lexer allocates
// nothing on the escape-free path.
func (lx *Lexer) Reset(src string) {
	lx.src, lx.pos, lx.lines = src, 0, startOfScript
}

// Tokenize scans the whole input and returns the token slice, terminated
// by an EOF token.
func Tokenize(src string) []Token {
	lx := NewLexer(src)
	var toks []Token
	for {
		t := lx.Next()
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks
		}
	}
}

// lineCursor maps byte offsets of one source to 1-based line and column
// (columns count bytes). It counts newlines forward from the last offset
// it was asked about, so offsets must not decrease between calls.
type lineCursor struct{ off, line, lineStart int }

var startOfScript = lineCursor{line: 1}

func (c *lineCursor) at(src string, off int) (line, col int) {
	if seg := src[c.off:off]; seg != "" {
		if n := strings.Count(seg, "\n"); n > 0 {
			c.line += n
			c.lineStart = c.off + strings.LastIndexByte(seg, '\n') + 1
		}
	}
	c.off = off
	return c.line, off - c.lineStart + 1
}

// Byte classes, looked up in one table on the lexer's hot loops.
const (
	classSpace = 1 << iota
	classIdentStart
	classDigit
)

var byteClass = func() (t [256]uint8) {
	for c := range t {
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' || c == '\f':
			t[c] = classSpace
		case c == '_' || c == '$' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || c >= 0x80:
			t[c] = classIdentStart
		case '0' <= c && c <= '9':
			t[c] = classDigit
		}
	}
	return t
}()

func isSpace(c byte) bool      { return byteClass[c]&classSpace != 0 }
func isIdentStart(c byte) bool { return byteClass[c]&classIdentStart != 0 }
func isIdentPart(c byte) bool  { return byteClass[c]&(classIdentStart|classDigit) != 0 }
func isDigit(c byte) bool      { return byteClass[c]&classDigit != 0 }

// byteAt returns src[i], or 0 past the end.
func byteAt(src string, i int) byte {
	if i >= len(src) {
		return 0
	}
	return src[i]
}

// skipBlank returns the offset of the first byte at or after i that is
// neither whitespace nor inside a comment.
func skipBlank(src string, i int, prof LexProfile) int {
	for i < len(src) {
		c := src[i]
		switch {
		case isSpace(c):
			i++
		case c == '-' && byteAt(src, i+1) == '-', c == '#' && !prof.NoHashComment:
			j := strings.IndexByte(src[i:], '\n')
			if j < 0 {
				return len(src)
			}
			i += j
		case c == '/' && byteAt(src, i+1) == '*':
			j := strings.Index(src[i+2:], "*/")
			if j < 0 {
				return len(src)
			}
			i += j + 4
		default:
			return i
		}
	}
	return i
}

// identEnd returns the end of the identifier starting at i.
func identEnd(src string, i int) int {
	for i < len(src) && isIdentPart(src[i]) {
		i++
	}
	return i
}

// numberEnd returns the end of the numeric literal starting at i: digits
// with at most one decimal point and any exponents.
func numberEnd(src string, i int) int {
	seenDot := false
	for i < len(src) {
		c := src[i]
		switch {
		case isDigit(c):
			i++
		case c == '.' && !seenDot && isDigit(byteAt(src, i+1)):
			seenDot = true
			i++
		case (c == 'e' || c == 'E') && (isDigit(byteAt(src, i+1)) ||
			((byteAt(src, i+1) == '+' || byteAt(src, i+1) == '-') && isDigit(byteAt(src, i+2)))):
			i += 2 // e and the sign or first digit
		default:
			return i
		}
	}
	return i
}

// stringEnd scans the single-quoted literal whose opening quote is at i,
// honouring both the SQL-standard doubled-quote escape ('it”s') and the
// MySQL backslash escape ('it\'s'). It returns the end of the literal's
// body (before the closing quote), the end of the literal, and whether
// the body holds an escape. An unterminated literal runs to the end of
// src.
func stringEnd(src string, i int) (body, end int, escaped bool) {
	for j := i + 1; j < len(src); j++ {
		switch src[j] {
		case '\'':
			if byteAt(src, j+1) != '\'' {
				return j, j + 1, escaped
			}
			escaped = true
			j++
		case '\\':
			escaped = true
			j++ // the escaped byte; a backslash at the end escapes nothing
		}
	}
	return len(src), len(src), escaped
}

// quotedEnd scans the quoted identifier whose opening delimiter is at i
// and whose closing delimiter is close; a doubled closing delimiter
// escapes it. The results are as for stringEnd.
func quotedEnd(src string, i int, close byte) (body, end int, escaped bool) {
	for j := i + 1; j < len(src); j++ {
		if src[j] == close {
			if byteAt(src, j+1) != close {
				return j, j + 1, escaped
			}
			escaped = true
			j++
		}
	}
	return len(src), len(src), escaped
}

// dollarTagEnd returns the end of the PostgreSQL dollar-quote opener
// ('$' [ident chars]* '$') at i, or 0 when there is none.
func dollarTagEnd(src string, i int) int {
	j := i + 1
	for j < len(src) && isIdentPart(src[j]) && src[j] != '$' {
		j++
	}
	if byteAt(src, j) != '$' {
		return 0
	}
	return j + 1
}

// dollarEnd returns the end of the body and of the dollar-quoted string
// whose opener spans src[i:tagEnd]; an unterminated one runs to the end
// of src.
func dollarEnd(src string, i, tagEnd int) (body, end int) {
	tag := src[i:tagEnd]
	k := strings.Index(src[tagEnd:], tag)
	if k < 0 {
		return len(src), len(src)
	}
	return tagEnd + k, tagEnd + k + len(tag)
}

// lexeme is the extent of one token: its kind and end, and for strings
// and quoted identifiers the body between the delimiters, whether the
// body holds an escape, and the closing delimiter the escapes double.
type lexeme struct {
	kind          Kind
	end           int
	body, bodyEnd int
	escaped       bool
	close         byte
}

// lexemeAt sets x to the token starting at i, which must be a byte that
// is neither blank nor past the end; the body fields are set for String
// and QuotedIdent tokens only. Lexer.Next and stmtScanner both dispatch
// through it, so which byte opens which element under each LexProfile is
// decided here alone. (x is an out-parameter: returning the struct cost
// the boundary scan about a quarter of its throughput.)
func lexemeAt(x *lexeme, src string, i int, prof LexProfile) {
	c := src[i]
	if c == '$' && prof.Dollar {
		if tagEnd := dollarTagEnd(src, i); tagEnd > 0 {
			x.kind, x.body, x.escaped = String, tagEnd, false
			x.bodyEnd, x.end = dollarEnd(src, i, tagEnd)
			return
		}
	}
	switch {
	case isIdentStart(c):
		x.kind, x.end = Ident, identEnd(src, i)
	case isDigit(c) || (c == '.' && isDigit(byteAt(src, i+1))):
		x.kind, x.end = Number, numberEnd(src, i)
	case c == '\'':
		x.kind, x.body, x.close = String, i+1, c
		x.bodyEnd, x.end, x.escaped = stringEnd(src, i)
	case c == '"' || (c == '`' && !prof.NoBacktick) || (c == '[' && !prof.NoBracket):
		x.kind, x.body, x.close = QuotedIdent, i+1, c
		if c == '[' {
			x.close = ']'
		}
		x.bodyEnd, x.end, x.escaped = quotedEnd(src, i, x.close)
	case c == '(':
		x.kind, x.end = LParen, i+1
	case c == ')':
		x.kind, x.end = RParen, i+1
	case c == ',':
		x.kind, x.end = Comma, i+1
	case c == ';':
		x.kind, x.end = Semi, i+1
	case c == '.':
		x.kind, x.end = Dot, i+1
	default:
		x.kind, x.end = Op, opEnd(src, i)
	}
}

// Next returns the next token.
func (lx *Lexer) Next() Token {
	src := lx.src
	i := skipBlank(src, lx.pos, lx.prof)
	line, col := lx.lines.at(src, i)
	if i >= len(src) {
		lx.pos = i
		return Token{Kind: EOF, Line: line, Col: col}
	}
	var x lexeme
	lexemeAt(&x, src, i, lx.prof)
	lx.pos = x.end
	t := Token{Kind: x.kind, Line: line, Col: col}
	switch x.kind {
	case Ident, Number:
		t.Text = src[i:x.end]
	case String, QuotedIdent:
		// Escape-free bodies, the overwhelmingly common case, are
		// zero-copy slices of the source.
		t.Text = src[x.body:x.bodyEnd]
		if x.escaped {
			t.Text = lx.unescape(t.Text, x.close, x.kind == String)
		}
	default:
		t.Text = opText(src, i, x.end)
	}
	return t
}

// unescape returns a copy of a quoted body with each doubled close byte —
// and, in string literals, each backslash escape — resolved, built in the
// lexer's scratch buffer.
func (lx *Lexer) unescape(body string, close byte, backslash bool) string {
	buf := lx.scratch[:0]
	for j := 0; j < len(body); j++ {
		c := body[j]
		if (c == close || (backslash && c == '\\')) && j+1 < len(body) {
			j++
			if c == '\\' {
				c = body[j]
			}
		}
		buf = append(buf, c)
	}
	lx.scratch = buf[:0]
	return string(buf)
}

// opEnd returns the end of the operator at i: one byte, or two for the
// digraphs <= <> >= != :: ||.
func opEnd(src string, i int) int {
	next := byteAt(src, i+1)
	switch src[i] {
	case '<':
		if next == '=' || next == '>' {
			return i + 2
		}
	case '>', '!':
		if next == '=' {
			return i + 2
		}
	case ':', '|':
		if next == src[i] {
			return i + 2
		}
	}
	return i + 1
}

// opTexts maps a single operator byte to its string without allocating;
// entries match what string(rune(b)) would produce.
var opTexts = func() [256]string {
	var t [256]string
	for i := range t {
		t[i] = string(rune(i))
	}
	return t
}()

// opText returns the punctuation or operator src[i:end] as a constant,
// without allocating.
func opText(src string, i, end int) string {
	if end == i+1 {
		return opTexts[src[i]]
	}
	switch src[i : i+2] {
	case "<=":
		return "<="
	case "<>":
		return "<>"
	case ">=":
		return ">="
	case "!=":
		return "!="
	case "::":
		return "::"
	}
	return "||"
}

// stmtScanner walks a script statement by statement without building
// tokens: it steps over lexical elements with the lexer's own extent
// functions, tracking parenthesis depth, and stops at each top-level
// semicolon. Each statement is reported as offsets into the script.
type stmtScanner struct {
	src  string
	prof LexProfile
	next int // offset where the next statement starts; > len(src) when done
	// from is the offset of the statement's first token or comment, to
	// the end of its last token (from == to when it has none), and term
	// the offset of its terminator: the semicolon, or len(src) for the
	// last statement. src[from:to] is the statement's exact token span.
	from, to, term int
}

// scan advances to the next statement and reports whether there was one.
func (sc *stmtScanner) scan() bool {
	src, i := sc.src, sc.next
	if i > len(src) {
		return false
	}
	start, depth := i, 0
	var x lexeme
	sc.to, sc.term = i, len(src)
tokens:
	for {
		j := skipBlank(src, i, sc.prof)
		if j >= len(src) {
			break
		}
		lexemeAt(&x, src, j, sc.prof)
		switch x.kind {
		case Semi:
			if depth == 0 {
				sc.term = j
				break tokens
			}
		case LParen:
			depth++
		case RParen:
			if depth > 0 {
				depth--
			}
		}
		i, sc.to = x.end, x.end
	}
	sc.from = start
	for sc.from < sc.to && isSpace(src[sc.from]) {
		sc.from++
	}
	sc.next = sc.term + 1
	return true
}

// SplitStatements splits a script into statements on top-level semicolons,
// ignoring semicolons inside strings, comments and parentheses. It returns
// the raw text of each non-empty statement — the same texts, in the same
// order, as the units of Session.ParseUnits under the generic dialect.
// This is used by callers that want per-statement error recovery.
func SplitStatements(src string) []string {
	var out []string
	sc := stmtScanner{src: src}
	for sc.scan() {
		if s := strings.TrimSpace(src[sc.from:sc.to]); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// QuoteString renders a value as a SQL single-quoted literal, doubling
// embedded quotes.
func QuoteString(v string) string {
	return "'" + strings.ReplaceAll(v, "'", "''") + "'"
}

// ParseError describes a failure to parse a single statement. The
// statement index and position refer to the original script.
type ParseError struct {
	Stmt    int    // 0-based statement index within the script
	Line    int    // 1-based line of the offending token
	Col     int    // 1-based column of the offending token
	Msg     string // what went wrong
	Excerpt string // leading fragment of the statement text
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("sqlddl: statement %d at %d:%d: %s", e.Stmt, e.Line, e.Col, e.Msg)
}

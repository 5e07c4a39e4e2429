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
//   - string literals: 'it”s' with doubled-quote escapes, plus backslash
//     escapes where the profile has them (and in PostgreSQL E'...' strings)
//   - quoted identifiers: "postgres", `mysql`, [mssql]
//
// The lexer never fails: malformed input (e.g. an unterminated string)
// yields a final token covering the rest of the input, and the parser
// decides how much of the statement is salvageable.
//
// Each byte is classified by one lookup in the profile's lexTable;
// skipBlank and lexemeAt dispatch on that class, and the statement
// boundary scan (stmtScanner) reads the same table, so every dialect's
// quoting and comment rules live in one place. Every reader of DDL text
// goes through them: the parser through Next, and dialect detection
// through Scan, which reports comments as well as tokens and reads each
// candidate dialect's text under that dialect's profile. Tokens carry
// their byte offset only, and an unquoted identifier its keyword code,
// looked up once here.
type Lexer struct {
	src string
	pos int
	// tab holds the dialect's byte classes; see lexTable.
	tab *lexTable
	// scratch backs the unescaping slow path of string and quoted-identifier
	// tokens; the common escape-free case slices src directly instead.
	scratch []byte
}

// NewLexer returns a lexer over src using the generic union profile.
func NewLexer(src string) *Lexer {
	return NewLexerProfile(src, LexProfile{})
}

// NewLexerProfile returns a lexer over src with a dialect lex profile.
func NewLexerProfile(src string, prof LexProfile) *Lexer {
	return &Lexer{src: src, tab: tableFor(prof)}
}

// Reset re-points the lexer at src, keeping the profile and reusing the
// scratch buffer — re-lexing many inputs through one lexer allocates
// nothing on the escape-free path.
func (lx *Lexer) Reset(src string) {
	lx.src, lx.pos = src, 0
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
// it was asked about, so offsets must not decrease between calls. Only
// error reporting asks: tokens carry offsets, not positions.
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

// Character properties every profile shares, looked up in one table on
// the extent functions' inner loops.
const (
	charSpace = 1 << iota
	charIdentStart
	charDigit
)

var charFlags = func() (t [256]uint8) {
	for c := range t {
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' || c == '\f':
			t[c] = charSpace
		case c == '_' || c == '$' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || c >= 0x80:
			t[c] = charIdentStart
		case '0' <= c && c <= '9':
			t[c] = charDigit
		}
	}
	return t
}()

func isSpace(c byte) bool      { return charFlags[c]&charSpace != 0 }
func isIdentStart(c byte) bool { return charFlags[c]&charIdentStart != 0 }
func isIdentPart(c byte) bool  { return charFlags[c]&(charIdentStart|charDigit) != 0 }
func isDigit(c byte) bool      { return charFlags[c]&charDigit != 0 }

// byteClass is what a byte opens when a lexical element starts at it,
// under one LexProfile.
type byteClass uint8

const (
	clsOp         byteClass = iota // an operator: one byte, or a digraph (opEnd)
	clsBlank                       // whitespace
	clsWord                        // an identifier
	clsDigit                       // a number
	clsDot                         // a number when a digit follows, else a Dot
	clsLParen                      // (
	clsRParen                      // )
	clsComma                       // ,
	clsSemi                        // ;
	clsQuote                       // ' : a string with backslash escapes
	clsStdQuote                    // ' : a string in which a backslash is ordinary
	clsEscapeWord                  // E or e: an E'...' string when a quote follows, else an identifier
	clsIdentQuote                  // " ` [ : a quoted identifier
	clsDash                        // - : a line comment when another - follows, else an operator
	clsSlash                       // / : a block comment when * follows, else an operator
	clsHash                        // # : a line comment
	clsDollar                      // $ : a dollar quote when a tag follows, else an identifier
)

// lexTable is a LexProfile compiled to one class per byte. Every
// profile-dependent rule of the lexer is an entry here, so the lexer and
// the boundary scan learn what a byte opens from one lookup.
type lexTable struct {
	class [256]byteClass
	prof  LexProfile
}

func newLexTable(p LexProfile) (t lexTable) {
	t.prof = p
	for c := range t.class {
		switch {
		case isSpace(byte(c)):
			t.class[c] = clsBlank
		case isIdentStart(byte(c)):
			t.class[c] = clsWord
		case isDigit(byte(c)):
			t.class[c] = clsDigit
		}
	}
	t.class['.'] = clsDot
	t.class['('], t.class[')'] = clsLParen, clsRParen
	t.class[','], t.class[';'] = clsComma, clsSemi
	t.class['\''] = clsQuote
	if p.NoBackslashEscape {
		t.class['\''] = clsStdQuote
	}
	if p.EscapeStrings {
		t.class['E'], t.class['e'] = clsEscapeWord, clsEscapeWord
	}
	t.class['"'] = clsIdentQuote
	if !p.NoBacktick {
		t.class['`'] = clsIdentQuote
	}
	if !p.NoBracket {
		t.class['['] = clsIdentQuote
	}
	t.class['-'], t.class['/'] = clsDash, clsSlash
	if !p.NoHashComment {
		t.class['#'] = clsHash
	}
	if p.Dollar {
		t.class['$'] = clsDollar
	}
	return t
}

// lexTables holds the table of every LexProfile, indexed by the
// profile's fields as bits (tableFor). Tables are immutable and shared.
var lexTables = func() (ts [1 << 6]lexTable) {
	for i := range ts {
		ts[i] = newLexTable(LexProfile{
			NoHashComment: i&1 != 0, NoBacktick: i&2 != 0, NoBracket: i&4 != 0,
			Dollar: i&8 != 0, NoBackslashEscape: i&16 != 0, EscapeStrings: i&32 != 0,
		})
	}
	return ts
}()

// genericTable is the table of the generic union profile.
var genericTable = tableFor(LexProfile{})

// tableFor returns the shared table of profile p.
func tableFor(p LexProfile) *lexTable {
	i := 0
	for bit, on := range [...]bool{p.NoHashComment, p.NoBacktick, p.NoBracket,
		p.Dollar, p.NoBackslashEscape, p.EscapeStrings} {
		if on {
			i |= 1 << bit
		}
	}
	return &lexTables[i]
}

// byteAt returns src[i], or 0 past the end.
func byteAt(src string, i int) byte {
	if i >= len(src) {
		return 0
	}
	return src[i]
}

// skipBlank returns the offset of the first byte at or after i that is
// neither whitespace nor inside a comment.
func skipBlank(src string, i int, tab *lexTable) int {
	for i < len(src) {
		switch tab.class[src[i]] {
		case clsBlank:
			i++
		case clsDash, clsSlash, clsHash:
			j := commentEnd(src, i, tab)
			if j == i {
				return i
			}
			i = j
		default:
			return i
		}
	}
	return i
}

// commentEnd returns the end of the comment that opens at i, or i when
// none does: a line comment ends before its newline, an unterminated
// block comment at the end of src.
func commentEnd(src string, i int, tab *lexTable) int {
	switch tab.class[src[i]] {
	case clsDash:
		if byteAt(src, i+1) == '-' {
			return lineEnd(src, i)
		}
	case clsHash:
		return lineEnd(src, i)
	case clsSlash:
		if byteAt(src, i+1) == '*' {
			if j := strings.Index(src[i+2:], "*/"); j >= 0 {
				return i + j + 4
			}
			return len(src)
		}
	}
	return i
}

// lineEnd returns the offset of the newline that ends the line comment
// at i, or len(src).
func lineEnd(src string, i int) int {
	j := strings.IndexByte(src[i:], '\n')
	if j < 0 {
		return len(src)
	}
	return i + j
}

// identEnd returns the end of the identifier run at i.
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

// quotedEnd scans the quoted element whose opening delimiter is at i and
// whose closing delimiter is close; a doubled closing delimiter escapes
// it. Quoted identifiers and standard string literals (no backslash
// escapes) both end here. The results are as for stringEnd.
func quotedEnd(src string, i int, close byte) (body, end int, escaped bool) {
	for j := i + 1; ; j += 2 {
		k := strings.IndexByte(src[j:], close)
		if k < 0 {
			return len(src), len(src), escaped
		}
		j += k
		if byteAt(src, j+1) != close {
			return j, j + 1, escaped
		}
		escaped = true
	}
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
// body holds an escape, the closing delimiter the escapes double, and
// whether a backslash escapes as well.
type lexeme struct {
	kind          Kind
	end           int
	body, bodyEnd int
	escaped       bool
	backslash     bool
	close         byte
}

// lexemeAt sets x to the token starting at i, which must be a byte that
// is neither blank nor past the end; the body fields are set for String
// and QuotedIdent tokens only. It dispatches on the byte's class, so with
// the class table it decides, for Lexer.Next and stmtScanner alike, which
// byte opens which element under each LexProfile. (x is an
// out-parameter: returning the struct cost the boundary scan about a
// quarter of its throughput.)
func lexemeAt(x *lexeme, src string, i int, tab *lexTable) {
	c := src[i]
	switch tab.class[c] {
	case clsWord:
		x.kind, x.end = Ident, identEnd(src, i+1)
	case clsDigit:
		x.kind, x.end = Number, numberEnd(src, i)
	case clsDot:
		if isDigit(byteAt(src, i+1)) {
			x.kind, x.end = Number, numberEnd(src, i)
		} else {
			x.kind, x.end = Dot, i+1
		}
	case clsQuote:
		x.kind, x.body, x.close, x.backslash = String, i+1, '\'', true
		x.bodyEnd, x.end, x.escaped = stringEnd(src, i)
	case clsStdQuote:
		x.kind, x.body, x.close, x.backslash = String, i+1, '\'', false
		x.bodyEnd, x.end, x.escaped = quotedEnd(src, i, '\'')
	case clsEscapeWord:
		if byteAt(src, i+1) != '\'' {
			x.kind, x.end = Ident, identEnd(src, i+1)
			return
		}
		x.kind, x.body, x.close, x.backslash = String, i+2, '\'', true
		x.bodyEnd, x.end, x.escaped = stringEnd(src, i+1)
	case clsIdentQuote:
		x.kind, x.body, x.close, x.backslash = QuotedIdent, i+1, c, false
		if c == '[' {
			x.close = ']'
		}
		x.bodyEnd, x.end, x.escaped = quotedEnd(src, i, x.close)
	case clsDollar:
		tagEnd := dollarTagEnd(src, i)
		if tagEnd == 0 {
			x.kind, x.end = Ident, identEnd(src, i+1)
			return
		}
		x.kind, x.body, x.escaped = String, tagEnd, false
		x.bodyEnd, x.end = dollarEnd(src, i, tagEnd)
	case clsLParen:
		x.kind, x.end = LParen, i+1
	case clsRParen:
		x.kind, x.end = RParen, i+1
	case clsComma:
		x.kind, x.end = Comma, i+1
	case clsSemi:
		x.kind, x.end = Semi, i+1
	default: // clsOp, and a - or / that opens no comment
		x.kind, x.end = Op, opEnd(src, i)
	}
}

// Next returns the next token.
func (lx *Lexer) Next() Token {
	src := lx.src
	i := skipBlank(src, lx.pos, lx.tab)
	if i >= len(src) {
		lx.pos = i
		return Token{Kind: EOF, Off: i}
	}
	var x lexeme
	lexemeAt(&x, src, i, lx.tab)
	lx.pos = x.end
	t := Token{Kind: x.kind, Off: i}
	switch x.kind {
	case Ident:
		t.Text = src[i:x.end]
		t.kw = lookupKeyword(t.Text)
	case Number:
		t.Text = src[i:x.end]
	case String, QuotedIdent:
		// Escape-free bodies, the overwhelmingly common case, are
		// zero-copy slices of the source.
		t.Text = src[x.body:x.bodyEnd]
		if x.escaped {
			t.Text = lx.unescape(t.Text, x.close, x.backslash)
		}
	default:
		t.Text = opText(src, i, x.end)
	}
	return t
}

// Scan returns the kind and extent of the next token, or of the next
// comment, which Next skips (kind Comment), without building a token:
// src[start:end] is the element's source text, delimiters included, and
// at the end of the input the kind is EOF. It reads the text by the same
// rules as Next, so a caller outside the lexer (dialect detection) sees
// exactly the strings, comments and quoted identifiers the parser will.
func (lx *Lexer) Scan() (k Kind, start, end int) {
	src, i, tab := lx.src, lx.pos, lx.tab
	for i < len(src) && tab.class[src[i]] == clsBlank {
		i++
	}
	if i >= len(src) {
		lx.pos = i
		return EOF, i, i
	}
	switch tab.class[src[i]] {
	case clsWord: // the commonest element, stepped over in place
		k, end = Ident, identEnd(src, i+1)
	case clsDash, clsSlash, clsHash:
		if end = commentEnd(src, i, tab); end > i {
			k = Comment
			break
		}
		fallthrough
	default:
		var x lexeme
		lexemeAt(&x, src, i, tab)
		k, end = x.kind, x.end
	}
	lx.pos = end
	return k, i, end
}

// unescape returns a copy of a quoted body with each doubled close byte —
// and, when backslash is set, each backslash escape — resolved, built in
// the lexer's scratch buffer.
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
// tokens, tracking parenthesis depth, and stops at each top-level
// semicolon. Each statement is reported as offsets into the script.
//
// The scan reads the profile's class table one byte at a time. It steps
// over blanks, identifiers, numbers, operators and parentheses in place,
// with the lexer's own extent functions, and dispatches through skipBlank
// and lexemeAt only on a byte that can open a comment, a quoted element
// or a dollar quote: the bytes whose meaning the profile decides.
type stmtScanner struct {
	src  string
	tab  *lexTable
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
	class := &sc.tab.class
	start, to, depth := i, i, 0
	sc.term = len(src)
	var x lexeme
scan:
	for i < len(src) {
		switch class[src[i]] {
		case clsBlank:
			i++
			continue
		case clsWord:
			i = identEnd(src, i+1)
		case clsDigit:
			i = numberEnd(src, i)
		case clsOp, clsComma:
			// A digraph's second byte is an operator byte too, so
			// stepping one byte at a time ends where opEnd would.
			i++
		case clsLParen:
			depth++
			i++
		case clsRParen:
			if depth > 0 {
				depth--
			}
			i++
		case clsSemi:
			if depth == 0 {
				sc.term = i
				break scan
			}
			i++
		case clsEscapeWord:
			if byteAt(src, i+1) != '\'' {
				i = identEnd(src, i+1)
				break
			}
			lexemeAt(&x, src, i, sc.tab)
			i = x.end
		default:
			if j := skipBlank(src, i, sc.tab); j > i {
				i = j // a comment
				continue
			}
			lexemeAt(&x, src, i, sc.tab)
			i = x.end
		}
		to = i
	}
	sc.from, sc.to = start, to
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
	sc := stmtScanner{src: src, tab: genericTable}
	for sc.scan() {
		if s := strings.TrimSpace(src[sc.from:sc.to]); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// ParseError describes a failure to parse a single statement. The
// statement index and position refer to the original script; the
// position is worked out from the offending token's offset only when the
// error is built.
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

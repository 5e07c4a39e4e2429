// Package sqlddl parses the SQL data-definition subset found in the schema
// files of open-source projects (MySQL, PostgreSQL and SQLite dialects).
//
// The parser is deliberately error-tolerant: real schema histories contain
// vendor quirks, partial statements and plain garbage, and losing an entire
// file to one bad statement would corrupt the change-detection signal the
// rest of the pipeline depends on. Parsing therefore proceeds statement by
// statement; failures are collected in Script.Errors and the survivors in
// Script.Statements.
package sqlddl

import (
	"strings"
)

// Parse parses a DDL script. It never returns an error: per-statement
// failures are reported in Script.Errors. Statements are found by a
// token-free scan and each distinct one is lexed once, through a pooled
// session; see Session for the allocation discipline.
func Parse(src string) *Script {
	s := AcquireSession()
	defer ReleaseSession(s)
	return s.ParseScript(src)
}

// ParseWith parses a DDL script under a specific dialect. Like Parse it
// never returns an error; dialect-foreign constructs surface as
// per-statement entries in Script.Errors.
func ParseWith(d Dialect, src string) *Script {
	s := AcquireSession()
	defer ReleaseSession(s)
	s.SetDialect(d)
	return s.ParseScript(src)
}

// ParseStatement parses a single statement (no trailing semicolon
// required). It returns a nil Statement for empty input.
func ParseStatement(text string) (Statement, error) {
	s := AcquireSession()
	defer ReleaseSession(s)
	s.lx = Lexer{src: text, lines: startOfScript, scratch: s.lx.scratch}
	toks := s.toks[:0]
	for {
		t := s.lx.Next()
		toks = append(toks, t)
		if t.Kind == EOF {
			break
		}
	}
	s.toks = toks
	stmt, perr := s.parseTokens(toks, 0, text)
	if perr != nil {
		return nil, perr
	}
	return stmt, nil
}

type parser struct {
	sess    *Session
	toks    []Token
	pos     int
	stmtIdx int
	text    string
	// q holds the session dialect's parse quirks, copied once per
	// statement so the hot path never dispatches through the interface.
	q Quirks
	// pending accumulates extra alterations produced while parsing one
	// action (MySQL "ADD (c1 t1, c2 t2)" grouped adds).
	pending []Alteration
	typeBuf []byte      // scratch for assembling data-type spellings
	scratch []byte      // scratch for parenthesized raw fragments
	cols    []ColumnDef // scratch for a CREATE TABLE's columns, copied out at exact size
}

// reset prepares the parser for one statement's token window, reusing its
// scratch buffers across statements.
func (p *parser) reset(s *Session, toks []Token, idx int, text string) {
	p.sess = s
	p.toks = toks
	p.pos = 0
	p.stmtIdx = idx
	p.text = text
	p.q = s.quirks
	p.pending = p.pending[:0]
}

func (p *parser) cur() Token { return p.toks[p.pos] }
func (p *parser) peek() Token { // token after cur
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != EOF {
		p.pos++
	}
	return t
}

func (p *parser) fail(msg string) {
	t := p.cur()
	excerpt := p.text
	if len(excerpt) > 60 {
		excerpt = excerpt[:60] + "..."
	}
	panic(&ParseError{Stmt: p.stmtIdx, Line: t.Line, Col: t.Col, Msg: msg, Excerpt: excerpt})
}

// accept consumes the next token if it matches the keyword.
func (p *parser) accept(keyword string) bool {
	if p.cur().Match(keyword) {
		p.pos++
		return true
	}
	return false
}

// acceptSeq consumes the keywords if they all match in order.
func (p *parser) acceptSeq(kws ...string) bool {
	for i, kw := range kws {
		if p.pos+i >= len(p.toks) || !p.toks[p.pos+i].Match(kw) {
			return false
		}
	}
	p.pos += len(kws)
	return true
}

func (p *parser) expect(keyword string) {
	if !p.accept(keyword) {
		p.fail("expected " + strings.ToUpper(keyword))
	}
}

func (p *parser) expectKind(k Kind) Token {
	if p.cur().Kind != k {
		p.fail("expected " + k.String())
	}
	return p.next()
}

// ident consumes a (possibly quoted, possibly schema-qualified) identifier
// and returns its final component, lower-cased for unquoted names so that
// MySQL/Postgres case-insensitivity is normalized away.
func (p *parser) ident() string {
	t := p.cur()
	if !t.IsIdent() {
		p.fail("expected identifier")
	}
	p.next()
	name := p.identValue(t)
	for p.cur().Kind == Dot {
		p.next()
		t = p.cur()
		if !t.IsIdent() {
			p.fail("expected identifier after '.'")
		}
		p.next()
		name = p.identValue(t)
	}
	return name
}

// identValue normalizes one identifier token: quoted names keep their
// exact spelling, unquoted names are lower-cased. Both are interned in the
// session so repeated names share storage and compare pointer-first.
func (p *parser) identValue(t Token) string {
	if t.Kind == QuotedIdent {
		return p.sess.intern(t.Text)
	}
	return p.sess.internLower(t.Text)
}

func (p *parser) parse() Statement {
	switch {
	case p.accept("create"):
		return p.parseCreate()
	case p.accept("alter"):
		if p.accept("table") {
			return p.parseAlterTable()
		}
		return p.rawRest("ALTER")
	case p.accept("drop"):
		return p.parseDrop()
	default:
		verb := strings.ToUpper(p.cur().Text)
		if p.cur().Kind != Ident {
			p.fail("statement must start with a keyword")
		}
		p.next()
		return p.rawRest(verb)
	}
}

func (p *parser) rawRest(verb string) Statement {
	for p.cur().Kind != EOF {
		p.next()
	}
	return &RawStatement{Verb: verb, Text: p.text}
}

func (p *parser) parseCreate() Statement {
	p.accept("or")
	p.accept("replace")
	temp := p.accept("temporary") || p.accept("temp") || p.accept("global") || p.accept("local")
	p.accept("temporary") // GLOBAL TEMPORARY
	unique := p.accept("unique")
	p.accept("fulltext")
	p.accept("spatial")
	switch {
	case p.accept("table"):
		return p.parseCreateTable(temp)
	case p.accept("index"):
		return p.parseCreateIndex(unique)
	case p.accept("view"):
		p.accept("if")
		p.accept("not")
		p.accept("exists")
		name := p.ident()
		return p.finishRaw(&CreateView{Name: name})
	case p.accept("materialized"):
		p.expect("view")
		name := p.ident()
		return p.finishRaw(&CreateView{Name: name})
	default:
		// CREATE DATABASE / SEQUENCE / TRIGGER / FUNCTION / TYPE / ...
		return p.rawRest("CREATE")
	}
}

func (p *parser) finishRaw(s Statement) Statement {
	for p.cur().Kind != EOF {
		p.next()
	}
	return s
}

func (p *parser) parseCreateTable(temp bool) Statement {
	ct := &CreateTable{Temporary: temp}
	if p.acceptSeq("if", "not", "exists") {
		ct.IfNotExists = true
	}
	ct.Name = p.ident()
	if p.accept("as") || p.accept("like") {
		// CREATE TABLE t AS SELECT ... / LIKE other — no explicit column
		// list; treat as an empty logical definition.
		return p.finishRaw(ct)
	}
	if p.cur().Kind != LParen {
		// Tables without a body (options only) are legal in some dumps.
		return p.finishRaw(ct)
	}
	p.next() // (
	p.cols = p.cols[:0]
	for {
		if p.cur().Kind == RParen {
			break
		}
		if c, ok := p.tryTableConstraint(); ok {
			ct.Constraints = append(ct.Constraints, c)
		} else {
			p.cols = append(p.cols, p.parseColumnDef())
		}
		if p.cur().Kind == Comma {
			p.next()
			continue
		}
		break
	}
	if p.cur().Kind != RParen {
		p.fail("expected ')' closing CREATE TABLE body")
	}
	p.next()
	if len(p.cols) > 0 {
		ct.Columns = make([]ColumnDef, len(p.cols))
		copy(ct.Columns, p.cols)
	}
	// Trailing table options: capture raw and ignore.
	var opts []string
	for p.cur().Kind != EOF {
		opts = append(opts, p.next().Text)
	}
	ct.Options = strings.Join(opts, " ")
	return ct
}

// constraintLeader reports whether the parser is positioned at a
// table-level constraint rather than a column definition.
func (p *parser) constraintLeader() bool {
	t := p.cur()
	if t.Kind != Ident {
		return false
	}
	switch {
	case t.Match("constraint"), t.Match("foreign"), t.Match("check"), t.Match("exclude"):
		return true
	case t.Match("primary"):
		return p.peek().Match("key")
	case t.Match("unique"):
		// UNIQUE (cols) / UNIQUE KEY name (cols) at table level; a column
		// named "unique" would be quoted.
		return p.peek().Kind == LParen || p.peek().Match("key") || p.peek().Match("index") || p.peek().IsIdent()
	case t.Match("key"), t.Match("index"):
		// KEY name (cols) — MySQL secondary index inside CREATE TABLE.
		return p.peek().IsIdent() || p.peek().Kind == LParen
	case t.Match("fulltext"), t.Match("spatial"):
		return true
	}
	return false
}

func (p *parser) tryTableConstraint() (TableConstraint, bool) {
	if !p.constraintLeader() {
		return TableConstraint{}, false
	}
	return p.parseTableConstraint(), true
}

func (p *parser) parseTableConstraint() TableConstraint {
	var c TableConstraint
	if p.accept("constraint") {
		if p.cur().IsIdent() && !p.cur().Match("primary") && !p.cur().Match("foreign") &&
			!p.cur().Match("unique") && !p.cur().Match("check") {
			c.Name = p.ident()
		}
	}
	switch {
	case p.acceptSeq("primary", "key"):
		c.Kind = PrimaryKeyConstraint
		p.skipIndexMethod()
		c.Columns = p.parseColumnList()
	case p.acceptSeq("foreign", "key"):
		c.Kind = ForeignKeyConstraint
		if p.cur().IsIdent() { // optional index name (MySQL)
			c.Name = p.ident()
		}
		c.Columns = p.parseColumnList()
		p.expect("references")
		c.Ref = p.parseFKRef()
	case p.accept("unique"):
		c.Kind = UniqueConstraint
		p.accept("key")
		p.accept("index")
		if p.cur().IsIdent() {
			c.Name = p.ident()
		}
		p.skipIndexMethod()
		c.Columns = p.parseColumnList()
	case p.accept("check"):
		c.Kind = CheckConstraint
		c.Expr = p.parenRaw()
		p.accept("not")
		p.accept("enforced")
	case p.accept("fulltext") || p.accept("spatial"):
		c.Kind = IndexConstraint
		p.accept("key")
		p.accept("index")
		if p.cur().IsIdent() {
			c.Name = p.ident()
		}
		c.Columns = p.parseColumnList()
	case p.accept("key") || p.accept("index"):
		c.Kind = IndexConstraint
		if p.cur().IsIdent() {
			c.Name = p.ident()
		}
		p.skipIndexMethod()
		c.Columns = p.parseColumnList()
	case p.accept("exclude"):
		c.Kind = CheckConstraint
		// EXCLUDE [USING m] (elements) — treat as an opaque check.
		p.skipIndexMethod()
		c.Expr = p.parenRaw()
	default:
		p.fail("unrecognized table constraint")
	}
	// Trailing constraint attributes common to dialects.
	for {
		switch {
		case p.acceptSeq("on", "delete"):
			act := p.refAction()
			if c.Ref != nil {
				c.Ref.OnDelete = act
			}
		case p.acceptSeq("on", "update"):
			act := p.refAction()
			if c.Ref != nil {
				c.Ref.OnUpdate = act
			}
		case p.accept("deferrable"), p.acceptSeq("not", "deferrable"),
			p.acceptSeq("initially", "deferred"), p.acceptSeq("initially", "immediate"),
			p.accept("enable"), p.accept("disable"):
			// constraint timing attributes — schema-neutral
		case p.accept("using"):
			p.next() // method name
		case p.accept("match"):
			p.next() // FULL | PARTIAL | SIMPLE
		default:
			return c
		}
	}
}

func (p *parser) skipIndexMethod() {
	if p.accept("using") {
		p.next() // btree, hash, gin, ...
	}
}

func (p *parser) refAction() string {
	switch {
	case p.accept("cascade"):
		return "CASCADE"
	case p.accept("restrict"):
		return "RESTRICT"
	case p.acceptSeq("set", "null"):
		return "SET NULL"
	case p.acceptSeq("set", "default"):
		return "SET DEFAULT"
	case p.acceptSeq("no", "action"):
		return "NO ACTION"
	}
	p.fail("expected referential action")
	return ""
}

// parseColumnList parses "(" name [(len)] [ASC|DESC] , ... ")".
func (p *parser) parseColumnList() []string {
	p.expectKind(LParen)
	var cols []string
	for {
		if p.cur().Kind == RParen {
			break
		}
		if p.cur().Kind == LParen {
			// Expression index element — skip it, record a placeholder.
			cols = append(cols, "("+p.parenRawInner()+")")
		} else {
			cols = append(cols, p.ident())
			if p.cur().Kind == LParen { // prefix length, e.g. name(10)
				p.skipParens()
			}
			p.accept("asc")
			p.accept("desc")
		}
		if p.cur().Kind == Comma {
			p.next()
			continue
		}
		break
	}
	p.expectKind(RParen)
	return cols
}

func (p *parser) parseFKRef() *FKRef {
	ref := &FKRef{Table: p.ident()}
	if p.cur().Kind == LParen {
		ref.Columns = p.parseColumnList()
	}
	for {
		switch {
		case p.acceptSeq("on", "delete"):
			ref.OnDelete = p.refAction()
		case p.acceptSeq("on", "update"):
			ref.OnUpdate = p.refAction()
		case p.accept("match"):
			p.next()
		case p.accept("deferrable"), p.acceptSeq("not", "deferrable"),
			p.acceptSeq("initially", "deferred"), p.acceptSeq("initially", "immediate"):
		default:
			return ref
		}
	}
}

// typeSuffixWords are identifiers that extend a multi-word data type.
var typeSuffixWords = map[string]bool{
	"precision": true, "varying": true, "unsigned": true, "signed": true,
	"zerofill": true, "with": true, "without": true, "time": true,
	"zone": true, "local": true, "large": true, "object": true,
}

// isTypeSuffixWord reports whether the identifier text names a type suffix
// word, folding ASCII case without allocating.
func isTypeSuffixWord(t string) bool {
	if len(t) > len("precision") {
		return false
	}
	var b [len("precision")]byte
	for i := 0; i < len(t); i++ {
		c := t[i]
		if c >= 0x80 {
			return false
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		b[i] = c
	}
	return typeSuffixWords[string(b[:len(t)])]
}

// appendLowerIdent appends the ASCII-lower-cased identifier text; inputs
// with non-ASCII bytes fall back to full Unicode folding.
func appendLowerIdent(buf []byte, t string) []byte {
	for i := 0; i < len(t); i++ {
		if t[i] >= 0x80 {
			return append(buf, strings.ToLower(t)...)
		}
	}
	for i := 0; i < len(t); i++ {
		c := t[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf = append(buf, c)
	}
	return buf
}

// parseType consumes a data type: leading identifier(s), optional
// parenthesized arguments, optional suffix words (e.g. "timestamp with
// time zone", "double precision", "int(11) unsigned"). The spelling is
// assembled in parser scratch and interned, so repeated types across a
// corpus share one string.
func (p *parser) parseType() string {
	buf := p.typeBuf[:0]
	buf = appendLowerIdent(buf, p.expectIdentText())
	// "character varying", "double precision" — second word before args.
	for p.cur().Kind == Ident && isTypeSuffixWord(p.cur().Text) {
		buf = append(buf, ' ')
		buf = appendLowerIdent(buf, p.next().Text)
	}
	if p.cur().Kind == LParen {
		buf = append(buf, '(')
		buf = p.parenRawInnerBuf(buf)
		buf = append(buf, ')')
	}
	for p.cur().Kind == Ident && isTypeSuffixWord(p.cur().Text) {
		buf = append(buf, ' ')
		buf = appendLowerIdent(buf, p.next().Text)
	}
	// Array suffix: "integer[]" lexes the empty brackets as an empty
	// quoted identifier — or, under a profile without bracket quoting
	// (PostgreSQL), as two operator tokens; "integer ARRAY" is the
	// spelled-out form. All three render as the same type spelling.
	for {
		if p.cur().Kind == QuotedIdent && p.cur().Text == "" {
			p.next()
			buf = append(buf, " array"...)
			continue
		}
		if p.cur().Kind == Op && p.cur().Text == "[" && p.peek().Kind == Op && p.peek().Text == "]" {
			p.next()
			p.next()
			buf = append(buf, " array"...)
			continue
		}
		break
	}
	if p.accept("array") {
		buf = append(buf, " array"...)
	}
	p.typeBuf = buf[:0]
	return p.sess.internBytes(buf)
}

func (p *parser) expectIdentText() string {
	t := p.cur()
	if !t.IsIdent() {
		p.fail("expected type name")
	}
	p.next()
	return t.Text
}

// parenRaw consumes a balanced parenthesized group and returns its text
// including the parentheses.
func (p *parser) parenRaw() string {
	return "(" + p.parenRawInner() + ")"
}

// parenRawInner consumes "(" ... ")" and returns the inner text.
func (p *parser) parenRawInner() string {
	buf := p.parenRawInnerBuf(p.scratch[:0])
	p.scratch = buf[:0]
	return string(buf)
}

// parenRawInnerBuf consumes "(" ... ")" and appends the inner text
// (space-separated token spellings) to buf.
func (p *parser) parenRawInnerBuf(buf []byte) []byte {
	p.expectKind(LParen)
	depth := 1
	mark := len(buf)
	for {
		t := p.cur()
		if t.Kind == EOF {
			p.fail("unbalanced parentheses")
		}
		if t.Kind == LParen {
			depth++
		}
		if t.Kind == RParen {
			depth--
			if depth == 0 {
				p.next()
				return buf
			}
		}
		if len(buf) > mark {
			buf = append(buf, ' ')
		}
		if t.Kind == String {
			buf = appendQuoteString(buf, t.Text)
		} else {
			buf = append(buf, t.Text...)
		}
		p.next()
	}
}

// appendQuoteString appends v as a SQL single-quoted literal, doubling
// embedded quotes — the byte-for-byte equivalent of QuoteString.
func appendQuoteString(buf []byte, v string) []byte {
	buf = append(buf, '\'')
	for i := 0; i < len(v); i++ {
		if v[i] == '\'' {
			buf = append(buf, '\'', '\'')
			continue
		}
		buf = append(buf, v[i])
	}
	return append(buf, '\'')
}

func (p *parser) skipParens() {
	depth := 0
	for {
		t := p.cur()
		switch t.Kind {
		case LParen:
			depth++
		case RParen:
			depth--
			if depth == 0 {
				p.next()
				return
			}
		case EOF:
			p.fail("unbalanced parentheses")
		}
		p.next()
	}
}

var serialTypes = map[string]bool{"serial": true, "bigserial": true, "smallserial": true, "serial4": true, "serial8": true, "serial2": true}

func (p *parser) parseColumnDef() ColumnDef {
	var col ColumnDef
	col.Name = p.ident()
	if !p.q.NoTypeless && (!p.cur().IsIdent() || p.constraintKeyword(p.cur()) || p.cur().Match("unique")) {
		// SQLite allows typeless columns ("id PRIMARY KEY").
		col.Type = ""
	} else {
		col.Type = p.parseType()
	}
	if !p.q.NoSerialAuto && serialTypes[col.Type] {
		col.AutoIncrement = true
		col.NotNull = true
	}
	for p.parseColumnConstraint(&col) {
	}
	return col
}

// parseColumnConstraint consumes one trailing column attribute; it
// reports false when the column definition is complete.
func (p *parser) parseColumnConstraint(col *ColumnDef) bool {
	switch {
	case p.accept("constraint"):
		if p.cur().IsIdent() && !p.constraintKeyword(p.cur()) {
			p.ident() // named inline constraint; name not retained
		}
		return true
	case p.acceptSeq("not", "null"):
		col.NotNull = true
	case p.accept("null"):
		// explicit NULL — default nullability
	case p.accept("default"):
		col.Default = p.parseDefaultExpr()
		col.HasDefault = true
	case p.acceptSeq("primary", "key"):
		col.PrimaryKey = true
		col.NotNull = true
		p.accept("asc")
		p.accept("desc")
		p.accept("autoincrement") // SQLite: PRIMARY KEY AUTOINCREMENT
	case p.accept("unique"):
		col.Unique = true
		p.accept("key")
	case p.accept("auto_increment"), p.accept("autoincrement"):
		col.AutoIncrement = true
	case p.accept("identity"):
		col.AutoIncrement = true
		if p.cur().Kind == LParen {
			p.skipParens()
		}
	case p.accept("generated"):
		// GENERATED {ALWAYS | BY DEFAULT} AS IDENTITY [(...)]
		// GENERATED ALWAYS AS (expr) [STORED | VIRTUAL]
		p.accept("always")
		p.acceptSeq("by", "default")
		p.expect("as")
		if p.accept("identity") {
			col.AutoIncrement = true
			if p.cur().Kind == LParen {
				p.skipParens()
			}
		} else if p.cur().Kind == LParen {
			p.skipParens()
			p.accept("stored")
			p.accept("virtual")
		}
	case p.accept("references"):
		col.References = p.parseFKRef()
	case p.accept("check"):
		p.parenRaw()
	case p.accept("comment"):
		if p.cur().Kind == String {
			col.Comment = p.next().Text
		}
	case p.accept("collate"):
		p.next() // collation name
	case p.acceptSeq("character", "set"), p.acceptSeq("charset"):
		p.next()
	case p.acceptSeq("on", "update"):
		// MySQL: ON UPDATE CURRENT_TIMESTAMP[(n)]
		p.next()
		if p.cur().Kind == LParen {
			p.skipParens()
		}
	case p.acceptSeq("on", "delete"):
		act := p.refAction()
		if col.References != nil {
			col.References.OnDelete = act
		}
	case p.accept("deferrable"), p.acceptSeq("not", "deferrable"),
		p.acceptSeq("initially", "deferred"), p.acceptSeq("initially", "immediate"),
		p.accept("invisible"), p.accept("visible"), p.accept("storage"),
		p.accept("stored"), p.accept("virtual"):
	default:
		return false
	}
	return true
}

func (p *parser) constraintKeyword(t Token) bool {
	if t.Kind != Ident {
		return false
	}
	return t.Match("not") || t.Match("null") || t.Match("default") || t.Match("primary") ||
		t.Match("unique") || t.Match("check") || t.Match("references") || t.Match("generated")
}

// parseDefaultExpr consumes a default value expression: a literal, signed
// number, NULL/TRUE/FALSE, a function call, a parenthesized expression, or
// any of those followed by Postgres '::' casts.
func (p *parser) parseDefaultExpr() string {
	var sb strings.Builder
	t := p.cur()
	switch {
	case t.Kind == String:
		p.next()
		sb.WriteString(QuoteString(t.Text))
	case t.Kind == Number:
		p.next()
		sb.WriteString(t.Text)
	case t.Kind == Op && (t.Text == "-" || t.Text == "+"):
		p.next()
		sb.WriteString(t.Text)
		sb.WriteString(p.expectKind(Number).Text)
	case t.Kind == LParen:
		sb.WriteString(p.parenRaw())
	case t.IsIdent():
		p.next()
		sb.WriteString(t.Text)
		if p.cur().Kind == LParen {
			sb.WriteString(p.parenRaw())
		}
	default:
		p.fail("expected default expression")
	}
	for !p.q.NoDoubleColonCast && p.cur().Kind == Op && p.cur().Text == "::" {
		p.next()
		sb.WriteString("::")
		// The default expression is stored (and re-rendered) as text, so
		// an exotic cast target must be quoted here or the rendered
		// statement would not re-parse (e.g. a cast to a bare "[]").
		sb.WriteString(renderType(p.parseType()))
	}
	return sb.String()
}

func (p *parser) parseAlterTable() Statement {
	at := &AlterTable{}
	if p.acceptSeq("if", "exists") {
		at.IfExists = true
	}
	p.accept("only") // Postgres: ALTER TABLE ONLY t
	at.Name = p.ident()
	for {
		act := p.parseAlteration()
		at.Actions = append(at.Actions, act)
		at.Actions = append(at.Actions, p.pending...)
		p.pending = p.pending[:0]
		if p.cur().Kind == Comma {
			p.next()
			continue
		}
		break
	}
	if p.cur().Kind != EOF {
		p.fail("trailing input after ALTER TABLE actions")
	}
	return at
}

func (p *parser) parseAlteration() Alteration {
	switch {
	case p.accept("add"):
		return p.parseAlterAdd()
	case p.accept("drop"):
		return p.parseAlterDrop()
	case p.accept("modify"):
		p.accept("column")
		col := p.parseColumnDef()
		p.skipColumnPosition()
		return Alteration{Action: ModifyColumn, Column: col}
	case p.accept("change"):
		p.accept("column")
		old := p.ident()
		col := p.parseColumnDef()
		p.skipColumnPosition()
		return Alteration{Action: RenameColumn, OldName: old, Column: col}
	case p.accept("alter"):
		return p.parseAlterColumn()
	case p.accept("rename"):
		switch {
		case p.accept("to"), p.accept("as"):
			return Alteration{Action: RenameTable, NewTableName: p.ident()}
		case p.accept("column"):
			old := p.ident()
			p.expect("to")
			return Alteration{Action: RenameColumn, OldName: old, Column: ColumnDef{Name: p.ident()}}
		default:
			// MySQL: RENAME t / RENAME INDEX a TO b
			if p.accept("index") || p.accept("key") {
				p.ident()
				p.expect("to")
				p.ident()
				return Alteration{Action: OtherAlteration}
			}
			return Alteration{Action: RenameTable, NewTableName: p.ident()}
		}
	default:
		// Engine options, OWNER TO, ENABLE TRIGGER, CONVERT TO CHARSET...
		p.skipToActionEnd()
		return Alteration{Action: OtherAlteration}
	}
}

func (p *parser) skipColumnPosition() {
	if p.accept("first") {
		return
	}
	if p.accept("after") {
		p.ident()
	}
}

func (p *parser) parseAlterAdd() Alteration {
	switch {
	case p.cur().Match("constraint") || p.cur().Match("foreign") ||
		(p.cur().Match("primary") && p.peek().Match("key")) ||
		p.cur().Match("check") ||
		(p.cur().Match("unique") && (p.peek().Kind == LParen || p.peek().Match("key") || p.peek().Match("index"))) ||
		((p.cur().Match("index") || p.cur().Match("key") || p.cur().Match("fulltext") || p.cur().Match("spatial")) &&
			(p.peek().IsIdent() || p.peek().Kind == LParen)):
		c := p.parseTableConstraint()
		return Alteration{Action: AddTableConstraint, Constraint: &c}
	default:
		p.accept("column")
		p.acceptSeq("if", "not", "exists")
		if p.cur().Kind == LParen {
			// MySQL: ADD (col1 def, col2 def) — parse first, the rest are
			// returned as extra actions by the caller via comma handling;
			// for simplicity treat the whole group as a single add of the
			// first column plus follow-ups parsed here.
			return p.parseAlterAddGroup()
		}
		col := p.parseColumnDef()
		p.skipColumnPosition()
		return Alteration{Action: AddColumn, Column: col}
	}
}

// parseAlterAddGroup handles "ADD (c1 t1, c2 t2)": it returns the first
// column and pushes synthetic tokens is not possible, so it instead
// flattens by storing the remaining columns in the pending list.
func (p *parser) parseAlterAddGroup() Alteration {
	p.expectKind(LParen)
	first := p.parseColumnDef()
	for p.cur().Kind == Comma {
		p.next()
		col := p.parseColumnDef()
		p.pending = append(p.pending, Alteration{Action: AddColumn, Column: col})
	}
	p.expectKind(RParen)
	return Alteration{Action: AddColumn, Column: first}
}

func (p *parser) parseAlterDrop() Alteration {
	switch {
	case p.acceptSeq("primary", "key"):
		return Alteration{Action: DropConstraint, ConstraintKind: PrimaryKeyConstraint}
	case p.acceptSeq("foreign", "key"):
		return Alteration{Action: DropConstraint, ConstraintKind: ForeignKeyConstraint, ConstraintName: p.ident()}
	case p.accept("constraint"):
		p.acceptSeq("if", "exists")
		return Alteration{Action: DropConstraint, ConstraintKind: ForeignKeyConstraint, ConstraintName: p.ident()}
	case p.accept("index"), p.accept("key"):
		name := p.ident()
		return Alteration{Action: DropConstraint, ConstraintKind: IndexConstraint, ConstraintName: name}
	default:
		p.accept("column")
		p.acceptSeq("if", "exists")
		name := p.ident()
		p.accept("cascade")
		p.accept("restrict")
		return Alteration{Action: DropColumn, Column: ColumnDef{Name: name}}
	}
}

func (p *parser) parseAlterColumn() Alteration {
	p.accept("column")
	name := p.ident()
	switch {
	case p.acceptSeq("set", "default"):
		expr := p.parseDefaultExpr()
		return Alteration{Action: SetDefault, Column: ColumnDef{Name: name, Default: expr, HasDefault: true}}
	case p.acceptSeq("drop", "default"):
		return Alteration{Action: SetDefault, Column: ColumnDef{Name: name}, Drop: true}
	case p.acceptSeq("set", "not", "null"):
		return Alteration{Action: SetNotNull, Column: ColumnDef{Name: name, NotNull: true}}
	case p.acceptSeq("drop", "not", "null"):
		return Alteration{Action: SetNotNull, Column: ColumnDef{Name: name}, Drop: true}
	case p.acceptSeq("set", "data", "type"), p.accept("type"):
		typ := p.parseType()
		p.skipUsingClause()
		return Alteration{Action: ModifyColumn, Column: ColumnDef{Name: name, Type: typ}}
	default:
		// SET STATISTICS, SET STORAGE, ... — schema-neutral.
		p.skipToActionEnd()
		return Alteration{Action: OtherAlteration, Column: ColumnDef{Name: name}}
	}
}

func (p *parser) skipUsingClause() {
	if !p.accept("using") {
		return
	}
	depth := 0
	for {
		t := p.cur()
		if t.Kind == EOF || (depth == 0 && t.Kind == Comma) {
			return
		}
		if t.Kind == LParen {
			depth++
		}
		if t.Kind == RParen {
			depth--
		}
		p.next()
	}
}

func (p *parser) skipToActionEnd() {
	depth := 0
	for {
		t := p.cur()
		if t.Kind == EOF || (depth == 0 && t.Kind == Comma) {
			return
		}
		if t.Kind == LParen {
			depth++
		}
		if t.Kind == RParen {
			depth--
		}
		p.next()
	}
}

func (p *parser) parseDrop() Statement {
	switch {
	case p.accept("table"):
		dt := &DropTable{}
		if p.acceptSeq("if", "exists") {
			dt.IfExists = true
		}
		dt.Names = append(dt.Names, p.ident())
		for p.cur().Kind == Comma {
			p.next()
			dt.Names = append(dt.Names, p.ident())
		}
		if p.accept("cascade") {
			dt.Cascade = true
		}
		p.accept("restrict")
		return p.finishRaw(dt)
	case p.accept("index"):
		di := &DropIndex{}
		p.accept("concurrently")
		p.acceptSeq("if", "exists")
		di.Name = p.ident()
		if p.accept("on") {
			di.Table = p.ident()
		}
		return p.finishRaw(di)
	case p.accept("view"), p.accept("materialized"):
		return p.rawRest("DROP")
	default:
		return p.rawRest("DROP")
	}
}

func (p *parser) parseCreateIndex(unique bool) Statement {
	ci := &CreateIndex{Unique: unique}
	p.accept("concurrently")
	p.acceptSeq("if", "not", "exists")
	if p.cur().IsIdent() && !p.cur().Match("on") {
		ci.Name = p.ident()
	}
	p.expect("on")
	p.accept("only")
	ci.Table = p.ident()
	p.skipIndexMethod()
	if p.cur().Kind == LParen {
		ci.Columns = p.parseColumnList()
	}
	return p.finishRaw(ci)
}

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
	s.lx = Lexer{src: text, tab: genericTable, scratch: s.lx.scratch}
	toks := s.toks[:0]
	for {
		t := s.lx.Next()
		toks = append(toks, t)
		if t.Kind == EOF {
			break
		}
	}
	s.toks = toks
	stmt, perr, off := s.parseTokens(toks, 0, text)
	if perr != nil {
		lines := startOfScript
		perr.Line, perr.Col = lines.at(text, off)
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
	errOff  int // offset of the token a failure was raised at
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
	p.errOff = t.Off
	panic(&ParseError{Stmt: p.stmtIdx, Msg: msg, Excerpt: excerpt})
}

// accept consumes the next token if it is the keyword. Keywords are
// matched by the code the lexer gave the token, never by its text.
func (p *parser) accept(kw keyword) bool {
	if p.toks[p.pos].kw == kw {
		p.pos++
		return true
	}
	return false
}

// acceptSeq consumes the keywords if they all match in order.
func (p *parser) acceptSeq(kws ...keyword) bool {
	for i, kw := range kws {
		if p.pos+i >= len(p.toks) || p.toks[p.pos+i].kw != kw {
			return false
		}
	}
	p.pos += len(kws)
	return true
}

func (p *parser) expect(kw keyword) {
	if !p.accept(kw) {
		p.fail("expected " + strings.ToUpper(keywordText[kw]))
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
	case p.accept(kwCreate):
		return p.parseCreate()
	case p.accept(kwAlter):
		if p.accept(kwTable) {
			return p.parseAlterTable()
		}
		return p.rawRest("ALTER")
	case p.accept(kwDrop):
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
	p.accept(kwOr)
	p.accept(kwReplace)
	temp := p.accept(kwTemporary) || p.accept(kwTemp) || p.accept(kwGlobal) || p.accept(kwLocal)
	p.accept(kwTemporary) // GLOBAL TEMPORARY
	unique := p.accept(kwUnique)
	p.accept(kwFulltext)
	p.accept(kwSpatial)
	switch {
	case p.accept(kwTable):
		return p.parseCreateTable(temp)
	case p.accept(kwIndex):
		return p.parseCreateIndex(unique)
	case p.accept(kwView):
		p.accept(kwIf)
		p.accept(kwNot)
		p.accept(kwExists)
		name := p.ident()
		return p.finishRaw(&CreateView{Name: name})
	case p.accept(kwMaterialized):
		p.expect(kwView)
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
	if p.acceptSeq(kwIf, kwNot, kwExists) {
		ct.IfNotExists = true
	}
	ct.Name = p.ident()
	if p.accept(kwAs) || p.accept(kwLike) {
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
	switch p.cur().kw {
	case kwConstraint, kwForeign, kwCheck, kwExclude, kwFulltext, kwSpatial:
		return true
	case kwPrimary:
		return p.peek().kw == kwKey
	case kwUnique:
		// UNIQUE (cols) / UNIQUE KEY name (cols) at table level; a column
		// named "unique" would be quoted. (KEY and INDEX are identifiers.)
		return p.peek().Kind == LParen || p.peek().IsIdent()
	case kwKey, kwIndex:
		// KEY name (cols) — MySQL secondary index inside CREATE TABLE.
		return p.peek().IsIdent() || p.peek().Kind == LParen
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
	if p.accept(kwConstraint) {
		switch p.cur().kw {
		case kwPrimary, kwForeign, kwUnique, kwCheck:
		default:
			if p.cur().IsIdent() {
				c.Name = p.ident()
			}
		}
	}
	switch {
	case p.acceptSeq(kwPrimary, kwKey):
		c.Kind = PrimaryKeyConstraint
		p.skipIndexMethod()
		c.Columns = p.parseColumnList()
	case p.acceptSeq(kwForeign, kwKey):
		c.Kind = ForeignKeyConstraint
		if p.cur().IsIdent() { // optional index name (MySQL)
			c.Name = p.ident()
		}
		c.Columns = p.parseColumnList()
		p.expect(kwReferences)
		c.Ref = p.parseFKRef()
	case p.accept(kwUnique):
		c.Kind = UniqueConstraint
		p.accept(kwKey)
		p.accept(kwIndex)
		if p.cur().IsIdent() {
			c.Name = p.ident()
		}
		p.skipIndexMethod()
		c.Columns = p.parseColumnList()
	case p.accept(kwCheck):
		c.Kind = CheckConstraint
		c.Expr = p.parenRaw()
		p.accept(kwNot)
		p.accept(kwEnforced)
	case p.accept(kwFulltext) || p.accept(kwSpatial):
		c.Kind = IndexConstraint
		p.accept(kwKey)
		p.accept(kwIndex)
		if p.cur().IsIdent() {
			c.Name = p.ident()
		}
		c.Columns = p.parseColumnList()
	case p.accept(kwKey) || p.accept(kwIndex):
		c.Kind = IndexConstraint
		if p.cur().IsIdent() {
			c.Name = p.ident()
		}
		p.skipIndexMethod()
		c.Columns = p.parseColumnList()
	case p.accept(kwExclude):
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
		case p.acceptSeq(kwOn, kwDelete):
			act := p.refAction()
			if c.Ref != nil {
				c.Ref.OnDelete = act
			}
		case p.acceptSeq(kwOn, kwUpdate):
			act := p.refAction()
			if c.Ref != nil {
				c.Ref.OnUpdate = act
			}
		case p.accept(kwDeferrable), p.acceptSeq(kwNot, kwDeferrable),
			p.acceptSeq(kwInitially, kwDeferred), p.acceptSeq(kwInitially, kwImmediate),
			p.accept(kwEnable), p.accept(kwDisable):
			// constraint timing attributes — schema-neutral
		case p.accept(kwUsing):
			p.next() // method name
		case p.accept(kwMatch):
			p.next() // FULL | PARTIAL | SIMPLE
		default:
			return c
		}
	}
}

func (p *parser) skipIndexMethod() {
	if p.accept(kwUsing) {
		p.next() // btree, hash, gin, ...
	}
}

func (p *parser) refAction() string {
	switch {
	case p.accept(kwCascade):
		return "CASCADE"
	case p.accept(kwRestrict):
		return "RESTRICT"
	case p.acceptSeq(kwSet, kwNull):
		return "SET NULL"
	case p.acceptSeq(kwSet, kwDefault):
		return "SET DEFAULT"
	case p.acceptSeq(kwNo, kwAction):
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
			p.accept(kwAsc)
			p.accept(kwDesc)
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
		case p.acceptSeq(kwOn, kwDelete):
			ref.OnDelete = p.refAction()
		case p.acceptSeq(kwOn, kwUpdate):
			ref.OnUpdate = p.refAction()
		case p.accept(kwMatch):
			p.next()
		case p.accept(kwDeferrable), p.acceptSeq(kwNot, kwDeferrable),
			p.acceptSeq(kwInitially, kwDeferred), p.acceptSeq(kwInitially, kwImmediate):
		default:
			return ref
		}
	}
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
	for p.cur().kw.isTypeSuffix() {
		buf = append(buf, ' ')
		buf = appendLowerIdent(buf, p.next().Text)
	}
	if p.cur().Kind == LParen {
		buf = append(buf, '(')
		buf = p.parenRawInnerBuf(buf)
		buf = append(buf, ')')
	}
	for p.cur().kw.isTypeSuffix() {
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
	if p.accept(kwArray) {
		buf = append(buf, " array"...)
	}
	p.typeBuf = buf[:0]
	return p.sess.internBytes(buf)
}

func (p *parser) expectIdentText() string {
	t := p.cur()
	// An empty quoted identifier ("", [], an unterminated quote) names
	// no type; taking it for one would read as a typeless column.
	if !t.IsIdent() || t.Text == "" {
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
// (space-separated token spellings, strings and quoted identifiers
// re-quoted) to buf.
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
		switch t.Kind {
		case String:
			buf = appendQuoted(buf, t.Text, '\'')
		case QuotedIdent:
			buf = appendQuoted(buf, t.Text, '"')
		default:
			buf = append(buf, t.Text...)
		}
		p.next()
	}
}

// appendQuoted appends v between q quotes, doubling embedded ones: the
// canonical spelling of every string literal (single quotes) and quoted
// identifier (double quotes) the parser keeps as text (defaults, CHECK
// and raw groups).
func appendQuoted(buf []byte, v string, q byte) []byte {
	buf = append(buf, q)
	for i := 0; i < len(v); i++ {
		if v[i] == q {
			buf = append(buf, q)
		}
		buf = append(buf, v[i])
	}
	return append(buf, q)
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

func (p *parser) parseColumnDef() ColumnDef {
	var col ColumnDef
	col.Name = p.ident()
	if !p.q.NoTypeless && (!p.cur().IsIdent() || p.constraintKeyword(p.cur()) || p.cur().kw == kwUnique) {
		// SQLite allows typeless columns ("id PRIMARY KEY").
		col.Type = ""
	} else {
		col.Type = p.parseType()
	}
	if !p.q.NoSerialAuto && isSerialType(col.Type) {
		col.AutoIncrement = true
		col.NotNull = true
	}
	for p.parseColumnConstraint(&col) {
	}
	return col
}

// parseColumnConstraint consumes one trailing column attribute; it
// reports false when the column definition is complete. It switches on
// the current token's keyword code, so a column's end (a comma, a
// parenthesis, any non-keyword) is known after one comparison.
func (p *parser) parseColumnConstraint(col *ColumnDef) bool {
	next := p.peek().kw
	switch p.cur().kw {
	case kwConstraint:
		p.pos++
		if p.cur().IsIdent() && !p.constraintKeyword(p.cur()) {
			p.ident() // named inline constraint; name not retained
		}
	case kwNot:
		switch next {
		case kwNull:
			col.NotNull = true
		case kwDeferrable:
		default:
			return false
		}
		p.pos += 2
	case kwNull:
		p.pos++ // explicit NULL — default nullability
	case kwDefault:
		p.pos++
		col.Default = p.parseDefaultExpr()
		col.HasDefault = true
	case kwPrimary:
		if next != kwKey {
			return false
		}
		p.pos += 2
		col.PrimaryKey = true
		col.NotNull = true
		p.accept(kwAsc)
		p.accept(kwDesc)
		p.accept(kwAutoincrement) // SQLite: PRIMARY KEY AUTOINCREMENT
	case kwUnique:
		p.pos++
		col.Unique = true
		p.accept(kwKey)
	case kwAutoIncrement, kwAutoincrement:
		p.pos++
		col.AutoIncrement = true
	case kwIdentity:
		p.pos++
		col.AutoIncrement = true
		if p.cur().Kind == LParen {
			p.skipParens()
		}
	case kwGenerated:
		// GENERATED {ALWAYS | BY DEFAULT} AS IDENTITY [(...)]
		// GENERATED ALWAYS AS (expr) [STORED | VIRTUAL]
		p.pos++
		p.accept(kwAlways)
		p.acceptSeq(kwBy, kwDefault)
		p.expect(kwAs)
		if p.accept(kwIdentity) {
			col.AutoIncrement = true
			if p.cur().Kind == LParen {
				p.skipParens()
			}
		} else if p.cur().Kind == LParen {
			p.skipParens()
			p.accept(kwStored)
			p.accept(kwVirtual)
		}
	case kwReferences:
		p.pos++
		col.References = p.parseFKRef()
	case kwCheck:
		p.pos++
		p.parenRaw()
	case kwComment:
		p.pos++
		if p.cur().Kind == String {
			col.Comment = p.next().Text
		}
	case kwCollate, kwCharset:
		p.pos++
		p.next() // collation or character set name
	case kwCharacter:
		if next != kwSet {
			return false
		}
		p.pos += 2
		p.next()
	case kwOn:
		switch next {
		case kwUpdate:
			// MySQL: ON UPDATE CURRENT_TIMESTAMP[(n)]
			p.pos += 2
			p.next()
			if p.cur().Kind == LParen {
				p.skipParens()
			}
		case kwDelete:
			p.pos += 2
			act := p.refAction()
			if col.References != nil {
				col.References.OnDelete = act
			}
		default:
			return false
		}
	case kwInitially:
		if next != kwDeferred && next != kwImmediate {
			return false
		}
		p.pos += 2
	case kwDeferrable, kwInvisible, kwVisible, kwStorage, kwStored, kwVirtual:
		p.pos++
	default:
		return false
	}
	return true
}

func (p *parser) constraintKeyword(t Token) bool {
	switch t.kw {
	case kwNot, kwNull, kwDefault, kwPrimary, kwUnique, kwCheck, kwReferences, kwGenerated:
		return true
	}
	return false
}

// parseDefaultExpr consumes a default value expression: a literal, signed
// number, NULL/TRUE/FALSE, a function call, a parenthesized expression, or
// any of those followed by Postgres '::' casts.
func (p *parser) parseDefaultExpr() string {
	buf := p.scratch[:0]
	t := p.cur()
	switch {
	case t.Kind == String:
		p.next()
		buf = appendQuoted(buf, t.Text, '\'')
	case t.Kind == Number:
		p.next()
		buf = append(buf, t.Text...)
	case t.Kind == Op && (t.Text == "-" || t.Text == "+"):
		p.next()
		buf = append(buf, t.Text...)
		buf = append(buf, p.expectKind(Number).Text...)
	case t.Kind == LParen:
		buf = append(p.parenRawInnerBuf(append(buf, '(')), ')')
	case t.IsIdent():
		p.next()
		if t.Kind == QuotedIdent {
			// Kept quoted, or the canonical text would not re-parse ("a b").
			buf = appendQuoted(buf, t.Text, '"')
		} else {
			buf = append(buf, t.Text...)
		}
		if p.cur().Kind == LParen {
			buf = append(p.parenRawInnerBuf(append(buf, '(')), ')')
		}
	default:
		p.fail("expected default expression")
	}
	for !p.q.NoDoubleColonCast && p.cur().Kind == Op && p.cur().Text == "::" {
		p.next()
		// The default expression is stored (and re-rendered) as text, so
		// an exotic cast target must be quoted here or the rendered
		// statement would not re-parse (e.g. a cast to a bare "[]").
		buf = append(buf, "::"...)
		buf = append(buf, renderType(p.parseType())...)
	}
	p.scratch = buf[:0]
	return string(buf)
}

func (p *parser) parseAlterTable() Statement {
	at := &AlterTable{}
	if p.acceptSeq(kwIf, kwExists) {
		at.IfExists = true
	}
	p.accept(kwOnly) // Postgres: ALTER TABLE ONLY t
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
	case p.accept(kwAdd):
		return p.parseAlterAdd()
	case p.accept(kwDrop):
		return p.parseAlterDrop()
	case p.accept(kwModify):
		p.accept(kwColumn)
		col := p.parseColumnDef()
		p.skipColumnPosition()
		return Alteration{Action: ModifyColumn, Column: col}
	case p.accept(kwChange):
		p.accept(kwColumn)
		old := p.ident()
		col := p.parseColumnDef()
		p.skipColumnPosition()
		return Alteration{Action: RenameColumn, OldName: old, Column: col}
	case p.accept(kwAlter):
		return p.parseAlterColumn()
	case p.accept(kwRename):
		switch {
		case p.accept(kwTo), p.accept(kwAs):
			return Alteration{Action: RenameTable, NewTableName: p.ident()}
		case p.accept(kwColumn):
			old := p.ident()
			p.expect(kwTo)
			return Alteration{Action: RenameColumn, OldName: old, Column: ColumnDef{Name: p.ident()}}
		default:
			// MySQL: RENAME t / RENAME INDEX a TO b
			if p.accept(kwIndex) || p.accept(kwKey) {
				p.ident()
				p.expect(kwTo)
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
	if p.accept(kwFirst) {
		return
	}
	if p.accept(kwAfter) {
		p.ident()
	}
}

func (p *parser) parseAlterAdd() Alteration {
	switch {
	case p.cur().kw == kwConstraint || p.cur().kw == kwForeign ||
		(p.cur().kw == kwPrimary && p.peek().kw == kwKey) ||
		p.cur().kw == kwCheck ||
		(p.cur().kw == kwUnique && (p.peek().Kind == LParen || p.peek().kw == kwKey || p.peek().kw == kwIndex)) ||
		((p.cur().kw == kwIndex || p.cur().kw == kwKey || p.cur().kw == kwFulltext || p.cur().kw == kwSpatial) &&
			(p.peek().IsIdent() || p.peek().Kind == LParen)):
		c := p.parseTableConstraint()
		return Alteration{Action: AddTableConstraint, Constraint: &c}
	default:
		p.accept(kwColumn)
		p.acceptSeq(kwIf, kwNot, kwExists)
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
	case p.acceptSeq(kwPrimary, kwKey):
		return Alteration{Action: DropConstraint, ConstraintKind: PrimaryKeyConstraint}
	case p.acceptSeq(kwForeign, kwKey):
		return Alteration{Action: DropConstraint, ConstraintKind: ForeignKeyConstraint, ConstraintName: p.ident()}
	case p.accept(kwConstraint):
		p.acceptSeq(kwIf, kwExists)
		return Alteration{Action: DropConstraint, ConstraintKind: ForeignKeyConstraint, ConstraintName: p.ident()}
	case p.accept(kwIndex), p.accept(kwKey):
		name := p.ident()
		return Alteration{Action: DropConstraint, ConstraintKind: IndexConstraint, ConstraintName: name}
	default:
		p.accept(kwColumn)
		p.acceptSeq(kwIf, kwExists)
		name := p.ident()
		p.accept(kwCascade)
		p.accept(kwRestrict)
		return Alteration{Action: DropColumn, Column: ColumnDef{Name: name}}
	}
}

func (p *parser) parseAlterColumn() Alteration {
	p.accept(kwColumn)
	name := p.ident()
	switch {
	case p.acceptSeq(kwSet, kwDefault):
		expr := p.parseDefaultExpr()
		return Alteration{Action: SetDefault, Column: ColumnDef{Name: name, Default: expr, HasDefault: true}}
	case p.acceptSeq(kwDrop, kwDefault):
		return Alteration{Action: SetDefault, Column: ColumnDef{Name: name}, Drop: true}
	case p.acceptSeq(kwSet, kwNot, kwNull):
		return Alteration{Action: SetNotNull, Column: ColumnDef{Name: name, NotNull: true}}
	case p.acceptSeq(kwDrop, kwNot, kwNull):
		return Alteration{Action: SetNotNull, Column: ColumnDef{Name: name}, Drop: true}
	case p.acceptSeq(kwSet, kwData, kwType), p.accept(kwType):
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
	if !p.accept(kwUsing) {
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
	case p.accept(kwTable):
		dt := &DropTable{}
		if p.acceptSeq(kwIf, kwExists) {
			dt.IfExists = true
		}
		dt.Names = append(dt.Names, p.ident())
		for p.cur().Kind == Comma {
			p.next()
			dt.Names = append(dt.Names, p.ident())
		}
		if p.accept(kwCascade) {
			dt.Cascade = true
		}
		p.accept(kwRestrict)
		return p.finishRaw(dt)
	case p.accept(kwIndex):
		di := &DropIndex{}
		p.accept(kwConcurrently)
		p.acceptSeq(kwIf, kwExists)
		di.Name = p.ident()
		if p.accept(kwOn) {
			di.Table = p.ident()
		}
		return p.finishRaw(di)
	case p.accept(kwView), p.accept(kwMaterialized):
		return p.rawRest("DROP")
	default:
		return p.rawRest("DROP")
	}
}

func (p *parser) parseCreateIndex(unique bool) Statement {
	ci := &CreateIndex{Unique: unique}
	p.accept(kwConcurrently)
	p.acceptSeq(kwIf, kwNot, kwExists)
	if p.cur().IsIdent() && p.cur().kw != kwOn {
		ci.Name = p.ident()
	}
	p.expect(kwOn)
	p.accept(kwOnly)
	ci.Table = p.ident()
	p.skipIndexMethod()
	if p.cur().Kind == LParen {
		ci.Columns = p.parseColumnList()
	}
	return p.finishRaw(ci)
}

package sqlddl

import (
	"strings"
	"sync"
)

// Unit is one statement slot of a parsed script: the raw (trimmed)
// statement text plus the parse outcome. A Unit with a nil Stmt and a nil
// Err is a comment-only slot (the text lexes to nothing); a Unit with a
// non-nil Err failed to parse. Unit indices match the statement indices
// reported in ParseError.Stmt.
type Unit struct {
	Text string
	Stmt Statement
	Err  *ParseError
}

// cachedStmt is one memoized statement parse.
type cachedStmt struct {
	stmt Statement
	err  *cachedErr
}

// cachedErr is a memoized parse failure. Its Stmt, Line and Col belong to
// the first occurrence; a reuse re-stamps the index and places the error
// at the same offset relative to the new occurrence's first byte (rel).
// An error raised at the statement's end (atEnd) sits at its terminator,
// the semicolon or the end of the script, which lies outside the cached
// text, so a reuse places it at the new occurrence's terminator.
type cachedErr struct {
	ParseError
	rel   int
	atEnd bool
}

// MaxInterned bounds the identifier intern table of a pooled session; a
// long-lived process parsing many corpora resets the table past this size
// instead of growing without bound. Memos keyed by interned names (such
// as the schema package's type normalization) use the same bound.
const MaxInterned = 1 << 16

// Session is the reusable scratch state of a parse session: an identifier
// intern table, a per-statement parse cache, and the token/parser buffers
// the hot path would otherwise reallocate per statement.
//
// The statement cache makes re-parsing consecutive versions of the same
// DDL file cheap: version N+1 of a schema dump shares almost every
// statement with version N byte-for-byte. A hit costs the token-free
// boundary scan over the statement's bytes (one class-table lookup per
// byte, see stmtScanner) and one map lookup; it builds no token and
// returns the previously built AST. A miss is lexed into offset-only,
// keyword-coded tokens; line and column are counted only for an error.
// Cached ASTs are shared — holders must treat statements as immutable
// (schema application and rendering already do).
//
// A Session is not safe for concurrent use. Use AcquireSession /
// ReleaseSession to recycle sessions through a pool; Release clears the
// statement cache (whose keys alias source text) but keeps the intern
// table, whose entries are small owned copies that stay useful across
// projects.
type Session struct {
	interned map[string]string
	stmts    map[string]cachedStmt

	// dialectID, tab and quirks are the active dialect's behavior,
	// flattened out of the Dialect interface so the lexer and parser hot
	// paths read plain struct fields and the profile's class table.
	dialectID DialectID
	tab       *lexTable
	quirks    Quirks

	lx    Lexer
	lines lineCursor // error positions, counted forward as errors are built
	toks  []Token
	p     parser
	lower []byte // scratch for lower-casing identifiers
}

// NewSession returns an empty parse session.
func NewSession() *Session {
	return &Session{
		interned: make(map[string]string, 256),
		stmts:    make(map[string]cachedStmt, 64),
		tab:      genericTable,
	}
}

var sessionPool = sync.Pool{New: func() any { return NewSession() }}

// AcquireSession returns a session from the package pool.
func AcquireSession() *Session { return sessionPool.Get().(*Session) }

// ReleaseSession clears the session's statement cache and returns it to
// the pool. Statements previously returned remain valid; they are simply
// no longer cached.
func ReleaseSession(s *Session) {
	s.dialectID, s.tab, s.quirks = DialectGeneric, genericTable, Quirks{}
	s.ClearCache()
	sessionPool.Put(s)
}

// SetDialect switches the session to d (nil means Generic). Memoized
// statement ASTs are dialect-dependent, so changing the dialect drops the
// statement cache; setting the dialect the session already uses is free.
func (s *Session) SetDialect(d Dialect) {
	if d == nil {
		d = Generic
	}
	if d.ID() == s.dialectID {
		return
	}
	s.dialectID = d.ID()
	s.tab = tableFor(d.LexProfile())
	s.quirks = d.Quirks()
	clear(s.stmts)
}

// DialectID returns the session's active dialect.
func (s *Session) DialectID() DialectID { return s.dialectID }

// ClearCache drops the per-statement parse cache (whose keys alias the
// parsed source) and, when the intern table has grown past its bound, the
// intern table as well. Call between unrelated inputs to bound retention.
func (s *Session) ClearCache() {
	clear(s.stmts)
	if len(s.interned) > MaxInterned {
		clear(s.interned)
	}
}

// intern returns a canonical owned copy of t. All equal strings interned
// through one session share backing storage, so downstream comparisons of
// table/column names usually short-circuit on the data pointer.
func (s *Session) intern(t string) string {
	if v, ok := s.interned[t]; ok {
		return v
	}
	v := strings.Clone(t)
	s.interned[v] = v
	return v
}

// internBytes is intern for a scratch byte buffer; the map probe does not
// allocate, so only a cache miss copies.
func (s *Session) internBytes(b []byte) string {
	if v, ok := s.interned[string(b)]; ok {
		return v
	}
	v := string(b)
	s.interned[v] = v
	return v
}

// internLower returns the interned lower-cased form of an unquoted
// identifier. ASCII-only inputs take an allocation-free path; anything
// with non-ASCII bytes falls back to the full Unicode folding the parser
// historically applied.
func (s *Session) internLower(t string) string {
	hasUpper, ascii := false, true
	for i := 0; i < len(t); i++ {
		c := t[i]
		if c >= 0x80 {
			ascii = false
			break
		}
		if 'A' <= c && c <= 'Z' {
			hasUpper = true
		}
	}
	if !ascii {
		return s.intern(strings.ToLower(t))
	}
	if !hasUpper {
		return s.intern(t)
	}
	buf := s.lower[:0]
	for i := 0; i < len(t); i++ {
		c := t[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf = append(buf, c)
	}
	s.lower = buf
	return s.internBytes(buf)
}

// ParseUnits parses src into statement units. A scan that builds no
// tokens finds each statement's extent (stmtScanner, driven by the
// profile's byte-class table); each statement's exact token span is then
// looked up in the session's statement cache, and only a miss is
// tokenized — from its own offset — and parsed. Versions of one DDL file
// share most statements, so most bytes are scanned once and never lexed.
// The returned slice reuses buf's storage when capacity allows.
func (s *Session) ParseUnits(src string, buf []Unit) []Unit {
	units := buf[:0]
	s.lines = startOfScript
	sc := stmtScanner{src: src, tab: s.tab}
	for sc.scan() {
		if text := strings.TrimSpace(src[sc.from:sc.to]); text != "" {
			units = append(units, s.parseUnit(src, text, &sc, len(units)))
		}
	}
	return units
}

// parseUnit resolves the statement sc stands on against the cache,
// lexing, parsing and memoizing it on a miss. idx is the unit's statement
// index within the script. The cache key is the statement's exact token
// span, so equal keys always lex to the same tokens, and a cached error's
// position can be re-based onto the new occurrence.
func (s *Session) parseUnit(src, text string, sc *stmtScanner, idx int) Unit {
	key := src[sc.from:sc.to]
	if c, ok := s.stmts[key]; ok {
		u := Unit{Text: text, Stmt: c.stmt}
		if c.err != nil {
			u.Err = s.rebase(c.err, src, sc, idx)
		}
		return u
	}
	lx := &s.lx
	lx.src, lx.pos, lx.tab = src[:sc.term], sc.from, s.tab
	toks := s.toks[:0]
	for {
		t := lx.Next()
		toks = append(toks, t)
		if t.Kind == EOF {
			break
		}
	}
	s.toks = toks
	stmt, err, off := s.parseTokens(toks, idx, text)
	var ce *cachedErr
	if err != nil {
		err.Line, err.Col = s.lines.at(src, off)
		ce = &cachedErr{ParseError: *err, rel: off - sc.from, atEnd: off == sc.term}
	}
	s.stmts[key] = cachedStmt{stmt: stmt, err: ce}
	return Unit{Text: text, Stmt: stmt, Err: err}
}

// rebase returns a copy of a cached error placed at the occurrence sc
// stands on, as statement idx of the script.
func (s *Session) rebase(ce *cachedErr, src string, sc *stmtScanner, idx int) *ParseError {
	e := ce.ParseError
	e.Stmt = idx
	off := sc.from + ce.rel
	if ce.atEnd {
		off = sc.term
	}
	e.Line, e.Col = s.lines.at(src, off)
	return &e
}

// parseTokens parses one statement from its token window (terminated by
// an EOF token). A failure comes back with its Line and Col unset and the
// offset of the offending token, for the caller to place.
func (s *Session) parseTokens(toks []Token, idx int, text string) (stmt Statement, perr *ParseError, off int) {
	if len(toks) == 1 { // just EOF: comments or whitespace only
		return nil, nil, 0
	}
	p := &s.p
	p.reset(s, toks, idx, text)
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(*ParseError)
			if !ok {
				panic(r)
			}
			stmt, perr, off = nil, e, p.errOff
		}
	}()
	return p.parse(), nil, 0
}

// ParseScript parses a whole DDL script through the session, collecting
// parsed statements and per-statement errors exactly like Parse.
func (s *Session) ParseScript(src string) *Script {
	units := s.ParseUnits(src, nil)
	script := &Script{}
	for i := range units {
		u := &units[i]
		if u.Err != nil {
			script.Errors = append(script.Errors, u.Err)
			continue
		}
		if u.Stmt != nil {
			script.Statements = append(script.Statements, u.Stmt)
		}
	}
	return script
}

package sqlddl

// DialectID identifies a SQL dialect. The zero value is the generic
// mixed-dialect mode — the union grammar the parser historically accepted —
// so existing zero-valued sessions and cache records keep their meaning.
type DialectID uint8

const (
	DialectGeneric DialectID = iota
	DialectMySQL
	DialectPostgres
	DialectSQLite
)

// Valid reports whether id is one of the defined dialect identifiers —
// the codec-side range check for dialect tags read from untrusted bytes.
func (id DialectID) Valid() bool { return id <= DialectSQLite }

func (id DialectID) String() string {
	switch id {
	case DialectMySQL:
		return "mysql"
	case DialectPostgres:
		return "postgres"
	case DialectSQLite:
		return "sqlite"
	}
	return "generic"
}

// LexProfile configures the lexer for one dialect. All fields are
// negations of the generic union behavior (plus Dollar and
// EscapeStrings, which only PostgreSQL enables), so the zero value lexes
// exactly like the pre-dialect lexer — the invariant the differential
// goldens pin. Each profile compiles to one byte-class table (lexTable)
// that the lexer and the statement boundary scan both dispatch through.
type LexProfile struct {
	// NoHashComment disables '#' line comments (MySQL-only syntax).
	NoHashComment bool
	// NoBacktick disables `backtick` identifier quoting.
	NoBacktick bool
	// NoBracket disables [bracket] identifier quoting.
	NoBracket bool
	// Dollar enables PostgreSQL $tag$ ... $tag$ dollar-quoted strings.
	Dollar bool
	// NoBackslashEscape makes a backslash an ordinary character in
	// '...' literals, as the SQL standard has it (PostgreSQL with
	// standard_conforming_strings, SQLite); the generic union and MySQL
	// read \' as an escaped quote.
	NoBackslashEscape bool
	// EscapeStrings enables PostgreSQL E'...' literals, whose body takes
	// backslash escapes whatever NoBackslashEscape says.
	EscapeStrings bool
}

// Quirks configures dialect-specific parse behavior. As with LexProfile,
// the zero value reproduces the generic union grammar.
type Quirks struct {
	// NoDoubleColonCast disables PostgreSQL '::type' casts in default
	// expressions.
	NoDoubleColonCast bool
	// NoSerialAuto disables treating the SERIAL type family as
	// auto-incrementing NOT NULL columns.
	NoSerialAuto bool
	// NoTypeless requires every column definition to carry a data type
	// (SQLite alone allows "id PRIMARY KEY").
	NoTypeless bool
}

// Dialect is a pluggable SQL dialect: a lexer profile and a set of
// parser quirks. Adapters live in
// internal/sqlddl/dialect/{mysql,postgres,sqlite}; the generic union
// dialect is defined here so the core package is usable standalone.
//
// Implementations must be immutable and safe for concurrent use; the
// Session copies the profile and quirks once per SetDialect, so no
// interface dispatch happens on the per-token or per-statement hot path.
type Dialect interface {
	ID() DialectID
	// Name is the canonical lower-case name ("mysql", "postgres", ...).
	Name() string
	LexProfile() LexProfile
	Quirks() Quirks
}

// genericDialect is the union grammar: every quoting style, every quirk.
type genericDialect struct{}

func (genericDialect) ID() DialectID          { return DialectGeneric }
func (genericDialect) Name() string           { return "generic" }
func (genericDialect) LexProfile() LexProfile { return LexProfile{} }
func (genericDialect) Quirks() Quirks         { return Quirks{} }

// Generic is the default dialect: the historical mixed-dialect union
// grammar. A nil Dialect everywhere means Generic.
var Generic Dialect = genericDialect{}

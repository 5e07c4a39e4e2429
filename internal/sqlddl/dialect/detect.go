package dialect

import (
	core "schemaevo/internal/sqlddl"
	"schemaevo/internal/sqlddl/dialect/mysql"
	"schemaevo/internal/sqlddl/dialect/postgres"
	"schemaevo/internal/sqlddl/dialect/sqlite"
)

// Detection reads a script once as each candidate dialect would, through
// Lexer.Scan under the dialect's own LexProfile, and scores only what
// that reading yields for that dialect: a string, comment or quoted
// identifier is skipped by exactly the rules the parser will apply if the
// dialect wins. The evidence is backticks and '#' comments (MySQL),
// dollar quotes, '::' and array brackets (PostgreSQL), bracket-quoted
// identifiers (SQLite), and the signal words of the weight table below.
//
// Detect is deterministic and total: equal inputs produce equal results,
// and every input produces a result. The highest score wins; ties break
// in the documented order MySQL > PostgreSQL > SQLite; an all-zero score
// (nothing dialect-specific in the file) yields Generic.

// Revision identifies the detection rules, and is bumped whenever a
// script can be detected differently. It is part of the cache key of
// auto-detected pipeline runs.
const Revision = 2

// Scores holds the evidence each candidate dialect's reading found.
type Scores struct {
	MySQL    int
	Postgres int
	SQLite   int
}

// winner applies the documented tie-break order.
func (s Scores) winner() core.DialectID {
	switch {
	case s.MySQL == 0 && s.Postgres == 0 && s.SQLite == 0:
		return core.DialectGeneric
	case s.MySQL >= s.Postgres && s.MySQL >= s.SQLite:
		return core.DialectMySQL
	case s.Postgres >= s.SQLite:
		return core.DialectPostgres
	default:
		return core.DialectSQLite
	}
}

// Detect guesses the dialect of a DDL script. See the package comment for
// the scoring model; Generic means "no dialect-specific evidence".
func Detect(src string) core.Dialect { return ByID(DetectID(src)) }

// DetectID is Detect returning just the identifier.
func DetectID(src string) core.DialectID { return Score(src).winner() }

// Score reads src under each candidate dialect and returns the raw
// per-dialect scores. It allocates nothing and never fails, whatever
// bytes it is handed.
func Score(src string) Scores {
	return Scores{
		MySQL:    scoreAs(mysql.Dialect, src),
		Postgres: scoreAs(postgres.Dialect, src),
		SQLite:   scoreAs(sqlite.Dialect, src),
	}
}

// weight pairs a dialect with the evidence weight of one signal word.
type weight struct {
	id core.DialectID
	w  int
}

// signalWords maps lower-cased identifier spellings to dialect evidence.
// Words common across dialects (text, integer, timestamp, ...) carry no
// signal and are absent.
var signalWords = map[string]weight{
	// MySQL: storage engines, charset clauses, width/sign modifiers, the
	// tiny/medium/long type ladder.
	"engine":         {core.DialectMySQL, 4},
	"auto_increment": {core.DialectMySQL, 4},
	"innodb":         {core.DialectMySQL, 4},
	"myisam":         {core.DialectMySQL, 4},
	"unsigned":       {core.DialectMySQL, 2},
	"zerofill":       {core.DialectMySQL, 2},
	"charset":        {core.DialectMySQL, 3},
	"utf8mb4":        {core.DialectMySQL, 3},
	"mediumint":      {core.DialectMySQL, 3},
	"mediumtext":     {core.DialectMySQL, 3},
	"mediumblob":     {core.DialectMySQL, 3},
	"longtext":       {core.DialectMySQL, 3},
	"longblob":       {core.DialectMySQL, 3},
	"tinytext":       {core.DialectMySQL, 3},
	"tinyblob":       {core.DialectMySQL, 3},
	"tinyint":        {core.DialectMySQL, 1},
	"enum":           {core.DialectMySQL, 2},

	// PostgreSQL: identity families, native types, sequence functions,
	// ALTER TABLE ONLY, procedural language markers.
	"serial":      {core.DialectPostgres, 4},
	"bigserial":   {core.DialectPostgres, 4},
	"smallserial": {core.DialectPostgres, 4},
	"bytea":       {core.DialectPostgres, 4},
	"jsonb":       {core.DialectPostgres, 4},
	"timestamptz": {core.DialectPostgres, 4},
	"nextval":     {core.DialectPostgres, 4},
	"setval":      {core.DialectPostgres, 3},
	"inherits":    {core.DialectPostgres, 3},
	"regclass":    {core.DialectPostgres, 3},
	"plpgsql":     {core.DialectPostgres, 4},
	"tablespace":  {core.DialectPostgres, 2},
	"varying":     {core.DialectPostgres, 2},
	"only":        {core.DialectPostgres, 2},
	"int4":        {core.DialectPostgres, 3},
	"int8":        {core.DialectPostgres, 3},
	"float8":      {core.DialectPostgres, 3},
	"gin":         {core.DialectPostgres, 2},
	"gist":        {core.DialectPostgres, 2},

	// SQLite: AUTOINCREMENT (one word), rowid tables, pragmas, FTS.
	"autoincrement":   {core.DialectSQLite, 4},
	"rowid":           {core.DialectSQLite, 4},
	"pragma":          {core.DialectSQLite, 3},
	"sqlite_sequence": {core.DialectSQLite, 4},
	"fts5":            {core.DialectSQLite, 3},
	"glob":            {core.DialectSQLite, 2},
}

// scoreAs returns the evidence for d in src read under d's lex profile.
func scoreAs(d core.Dialect, src string) int {
	id := d.ID()
	lx := core.NewLexerProfile(src, d.LexProfile())
	score, prevKind, prevEnd := 0, core.EOF, -1
	for k, start, end := lx.Scan(); k != core.EOF; k, start, end = lx.Scan() {
		text := src[start:end]
		// glued: the element touches the identifier before it, as the '['
		// of PostgreSQL's "integer[]" does; a free-standing bracket is
		// MSSQL-style quoting, which in the FOSS corpus means SQLite.
		glued := prevKind == core.Ident && prevEnd == start
		switch {
		case k == core.Ident:
			score += wordWeight(id, text)
		case id == core.DialectMySQL && k == core.QuotedIdent && text[0] == '`':
			score += 3
		case id == core.DialectMySQL && k == core.Comment && text[0] == '#':
			score += 2
		case id == core.DialectPostgres && (k == core.String && text[0] == '$' || k == core.Op && text == "::"):
			score += 3
		case id == core.DialectPostgres && k == core.Op && text == "[" && glued,
			id == core.DialectSQLite && k == core.QuotedIdent && text[0] == '[' && !glued:
			score += 2
		}
		prevKind, prevEnd = k, end
	}
	return score
}

// wordLengths has bit n of entry [id][c] set when a signal word of
// dialect id is n bytes long and starts with byte c; it spares nearly
// every identifier the map lookup.
var wordLengths = func() (t [core.DialectSQLite + 1][256]uint32) {
	for word, w := range signalWords {
		t[w.id][word[0]] |= 1 << len(word)
	}
	return t
}()

// wordWeight is the weight of an identifier, ASCII case-folded, as a
// signal word of dialect id. It allocates nothing.
func wordWeight(id core.DialectID, word string) int {
	if len(word) > 24 || wordLengths[id][word[0]|0x20]&(1<<len(word)) == 0 {
		return 0
	}
	var buf [24]byte
	for i := 0; i < len(word); i++ {
		b := word[i]
		if 'A' <= b && b <= 'Z' {
			b += 'a' - 'A'
		}
		buf[i] = b
	}
	if w, ok := signalWords[string(buf[:len(word)])]; ok && w.id == id {
		return w.w
	}
	return 0
}

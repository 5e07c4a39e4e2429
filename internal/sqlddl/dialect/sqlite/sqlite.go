// Package sqlite is the SQLite dialect adapter: loose typing (typeless
// columns), backtick and [bracket] quoting both tolerated, no '#'
// comments or backslash escapes, and no PostgreSQL casts.
package sqlite

import core "schemaevo/internal/sqlddl"

type dialectImpl struct{}

// Dialect is the SQLite dialect singleton.
var Dialect core.Dialect = dialectImpl{}

func (dialectImpl) ID() core.DialectID { return core.DialectSQLite }
func (dialectImpl) Name() string       { return "sqlite" }

func (dialectImpl) LexProfile() core.LexProfile {
	// SQLite accepts MySQL backticks and MSSQL brackets as identifier
	// quotes, but not '#' comments or dollar quoting, and a backslash in
	// a string literal is an ordinary character.
	return core.LexProfile{NoHashComment: true, NoBackslashEscape: true}
}

func (dialectImpl) Quirks() core.Quirks {
	// Typeless columns are native; SERIAL is just a type name here.
	return core.Quirks{NoDoubleColonCast: true, NoSerialAuto: true}
}

// Package postgres is the PostgreSQL dialect adapter: dollar-quoted
// strings, standard-conforming '...' strings (a backslash is an ordinary
// character; only E'...' strings take backslash escapes), '::' casts, the
// SERIAL identity family, and no backtick/bracket quoting or '#'
// comments.
package postgres

import core "schemaevo/internal/sqlddl"

type dialectImpl struct{}

// Dialect is the PostgreSQL dialect singleton.
var Dialect core.Dialect = dialectImpl{}

func (dialectImpl) ID() core.DialectID { return core.DialectPostgres }
func (dialectImpl) Name() string       { return "postgres" }

func (dialectImpl) LexProfile() core.LexProfile {
	return core.LexProfile{NoHashComment: true, NoBacktick: true, NoBracket: true, Dollar: true,
		NoBackslashEscape: true, EscapeStrings: true}
}

func (dialectImpl) Quirks() core.Quirks {
	// '::' casts and SERIAL auto-increment stay on; columns are typed.
	return core.Quirks{NoTypeless: true}
}

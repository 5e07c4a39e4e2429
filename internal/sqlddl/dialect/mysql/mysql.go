// Package mysql is the MySQL/MariaDB dialect adapter: backtick quoting,
// '#' line comments, backslash escapes in strings, and no PostgreSQL
// casts, dollar quoting or SERIAL identity.
package mysql

import core "schemaevo/internal/sqlddl"

type dialectImpl struct{}

// Dialect is the MySQL dialect singleton.
var Dialect core.Dialect = dialectImpl{}

func (dialectImpl) ID() core.DialectID { return core.DialectMySQL }
func (dialectImpl) Name() string       { return "mysql" }

func (dialectImpl) LexProfile() core.LexProfile {
	// Backticks and '#' comments are native; [brackets] and $dollar$
	// quoting are not.
	return core.LexProfile{NoBracket: true}
}

func (dialectImpl) Quirks() core.Quirks {
	// No '::' casts, no SERIAL-implies-identity, and every column carries
	// a type.
	return core.Quirks{NoDoubleColonCast: true, NoSerialAuto: true, NoTypeless: true}
}

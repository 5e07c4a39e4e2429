// Package postgres is the PostgreSQL dialect adapter: dollar-quoted
// strings, standard-conforming '...' strings (a backslash is an ordinary
// character; only E'...' strings take backslash escapes), '::' casts, the
// SERIAL identity family, no backtick/bracket quoting or '#' comments,
// and the PostgreSQL type vocabulary.
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

func (dialectImpl) KnownType(name string) bool { return types[name] }

var types = map[string]bool{
	"smallint": true, "integer": true, "int": true, "bigint": true,
	"int2": true, "int4": true, "int8": true,
	"decimal": true, "numeric": true, "real": true, "double": true,
	"float4": true, "float8": true, "money": true,
	"smallserial": true, "serial": true, "bigserial": true,
	"serial2": true, "serial4": true, "serial8": true,
	"character": true, "char": true, "varchar": true, "text": true,
	"bytea": true, "timestamp": true, "timestamptz": true, "date": true,
	"time": true, "timetz": true, "interval": true,
	"bool": true, "boolean": true, "point": true, "line": true,
	"lseg": true, "box": true, "path": true, "polygon": true, "circle": true,
	"cidr": true, "inet": true, "macaddr": true, "macaddr8": true,
	"bit": true, "varbit": true, "tsvector": true, "tsquery": true,
	"uuid": true, "xml": true, "json": true, "jsonb": true,
	"oid": true, "regclass": true, "name": true,
}

package dialect_test

import (
	"testing"

	core "schemaevo/internal/sqlddl"
	"schemaevo/internal/sqlddl/dialect"
)

// String-literal escapes per adapter. PostgreSQL (standard-conforming
// strings) and SQLite read a backslash as an ordinary character, so a
// literal may end in one; only PostgreSQL's E'...' strings take backslash
// escapes. MySQL and the generic union read \' as an escaped quote.

const trailingBackslash = "CREATE TABLE t (a text DEFAULT 'C:\\');\nCREATE TABLE u (b int);\n"

func TestStandardStringsKeepTrailingBackslash(t *testing.T) {
	for _, name := range []string{"postgres", "sqlite"} {
		t.Run(name, func(t *testing.T) {
			d, _ := dialect.ByName(name)
			script := core.ParseWith(d, trailingBackslash)
			if len(script.Errors) != 0 || len(script.Statements) != 2 {
				t.Fatalf("statements %d, errors %v; want 2 statements, no error", len(script.Statements), script.Errors)
			}
			ct := script.Statements[0].(*core.CreateTable)
			if got := ct.Columns[0].Default; got != `'C:\'` {
				t.Errorf("default = %s, want 'C:\\'", got)
			}
		})
	}
}

func TestBackslashEscapesQuoteInMySQLAndGeneric(t *testing.T) {
	// The quote after the backslash is escaped, so the literal swallows
	// the rest of the script: one error, as before.
	for _, d := range []core.Dialect{core.Generic, mustDialect(t, "mysql")} {
		script := core.ParseWith(d, trailingBackslash)
		if len(script.Statements) != 0 || len(script.Errors) != 1 {
			t.Errorf("%s: statements %d, errors %v; want 0 and 1", d.Name(), len(script.Statements), script.Errors)
		}
		script = core.ParseWith(d, `CREATE TABLE t (a text DEFAULT 'it\'s');`)
		if len(script.Errors) != 0 || script.Statements[0].(*core.CreateTable).Columns[0].Default != `'it''s'` {
			t.Errorf("%s: 'it\\'s' did not read as it's: %+v", d.Name(), script)
		}
	}
}

func TestPostgresEscapeStrings(t *testing.T) {
	pg := mustDialect(t, "postgres")
	for _, c := range []struct{ src, want string }{
		{`CREATE TABLE t (a text DEFAULT E'\'');`, `''''`},
		{`CREATE TABLE t (a text DEFAULT e'it\'s');`, `'it''s'`},
		{`CREATE TABLE t (a text DEFAULT E'C:\\');`, `'C:\'`},
		{`CREATE TABLE t (a text DEFAULT 'C:\\');`, `'C:\\'`},
	} {
		script := core.ParseWith(pg, c.src)
		if len(script.Errors) != 0 || len(script.Statements) != 1 {
			t.Errorf("%s: statements %d, errors %v", c.src, len(script.Statements), script.Errors)
			continue
		}
		if got := script.Statements[0].(*core.CreateTable).Columns[0].Default; got != c.want {
			t.Errorf("%s: default = %s, want %s", c.src, got, c.want)
		}
	}
	// An identifier that merely starts with E, and E before a space, are
	// identifiers as ever.
	script := core.ParseWith(pg, `CREATE TABLE email (e text, ee text DEFAULT 'x');`)
	ct := script.Statements[0].(*core.CreateTable)
	if ct.Name != "email" || len(ct.Columns) != 2 || ct.Columns[0].Name != "e" {
		t.Errorf("E-words lexed as strings: %+v, errors %v", ct, script.Errors)
	}
	// Outside PostgreSQL, E'...' is an identifier followed by a string.
	if sqlite := core.ParseWith(mustDialect(t, "sqlite"), `CREATE TABLE t (a text DEFAULT E'x');`); len(sqlite.Errors) != 1 {
		t.Errorf("sqlite read E'x' as one literal: %+v", sqlite)
	}
}

func mustDialect(t *testing.T, name string) core.Dialect {
	t.Helper()
	d, ok := dialect.ByName(name)
	if !ok {
		t.Fatalf("no dialect %q", name)
	}
	return d
}

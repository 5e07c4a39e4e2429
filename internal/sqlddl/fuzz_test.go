package sqlddl_test

import (
	"os"
	"path/filepath"
	"testing"

	"schemaevo/internal/sqlddl"
	"schemaevo/internal/sqlddl/dialect"
)

// FuzzParse is a native fuzz target for the whole parse path under every
// lex profile: the generic union and the three adapters. Run with
//
//	go test -run '^FuzzParse$' -fuzz '^FuzzParse$' ./internal/sqlddl
//
// Whatever bytes arrive, each dialect returns a script (degrading via
// Errors, never panicking), and every structured statement it produces,
// rendered for that dialect's profile, re-parses under it to exactly one
// statement without error. Without -fuzz the seed corpus below
// (hand-picked statements, every DDL file under testdata/ and the
// per-dialect conformance corpora) runs as a regular test.
func FuzzParse(f *testing.F) {
	// Seed with the real-world-shaped schema dumps committed under
	// testdata/ — they exercise multi-statement scripts, dialect quirks
	// and constraint syntax the synthetic one-liners below do not.
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*", "*.sql"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	seeds := []string{
		"CREATE TABLE t (a INT, b TEXT, PRIMARY KEY (a));",
		"ALTER TABLE t ADD COLUMN c DATE, DROP COLUMN b;",
		"DROP TABLE IF EXISTS t CASCADE;",
		"CREATE TABLE `q` (\"w\" int(10) unsigned DEFAULT '0' COMMENT 'it''s');",
		"CREATE TABLE x (y serial PRIMARY KEY, z text[] DEFAULT '{}'::text[]);",
		"-- comment\n/* block */ SELECT 1;",
		"CREATE TABLE ((((",
		"'unterminated string",
		";;;;",
		"ALTER TABLE ONLY public.t ALTER COLUMN c TYPE bigint USING c::bigint;",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	corpora, err := filepath.Glob(filepath.Join("..", "..", "testdata", "dialects", "*", "*.sql"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range corpora {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	dialects := append([]sqlddl.Dialect{sqlddl.Generic}, dialect.All()...)
	f.Fuzz(func(t *testing.T, src string) {
		for _, d := range dialects {
			script := sqlddl.ParseWith(d, src)
			if script == nil {
				t.Fatalf("%s: nil script", d.Name())
			}
			for _, stmt := range script.Statements {
				if _, ok := stmt.(*sqlddl.RawStatement); ok {
					continue
				}
				rendered := sqlddl.Render(stmt, d.LexProfile())
				re := sqlddl.ParseWith(d, rendered)
				if len(re.Errors) != 0 || len(re.Statements) != 1 {
					t.Fatalf("%s: rendered statement does not re-parse to one statement: %d statements, errors %v\nrendered: %s",
						d.Name(), len(re.Statements), re.Errors, rendered)
				}
			}
		}
	})
}

// TestQuotedIdentDefault pins how a double-quoted default is kept: quoted,
// with embedded quotes doubled, so the canonical text re-parses to the same
// default. MySQL without ANSI_QUOTES and SQLite read DEFAULT "" as an empty
// string, so an empty one is a default too, not a parse error.
func TestQuotedIdentDefault(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{`CREATE TABLE t (c varchar(5) NOT NULL DEFAULT "")`, `""`},
		{`CREATE TABLE t (c INT DEFAULT "a b")`, `"a b"`},
		{`CREATE TABLE t (c INT DEFAULT "a""b")`, `"a""b"`},
	} {
		for _, d := range append([]sqlddl.Dialect{sqlddl.Generic}, dialect.All()...) {
			script := sqlddl.ParseWith(d, c.src)
			if len(script.Errors) != 0 || len(script.Statements) != 1 {
				t.Fatalf("%s: %s: %d statements, errors %v", d.Name(), c.src, len(script.Statements), script.Errors)
			}
			ct, ok := script.Statements[0].(*sqlddl.CreateTable)
			if !ok || len(ct.Columns) != 1 || !ct.Columns[0].HasDefault || ct.Columns[0].Default != c.want {
				t.Fatalf("%s: %s: parsed %#v, want one column with default %s", d.Name(), c.src, script.Statements[0], c.want)
			}
			re := sqlddl.ParseWith(d, sqlddl.Render(ct, d.LexProfile()))
			if len(re.Statements) != 1 || re.Statements[0].(*sqlddl.CreateTable).Columns[0].Default != c.want {
				t.Errorf("%s: %s: rendered default does not re-parse to %s", d.Name(), c.src, c.want)
			}
		}
	}
}

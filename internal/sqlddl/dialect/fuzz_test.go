package dialect_test

import (
	"os"
	"path/filepath"
	"testing"

	core "schemaevo/internal/sqlddl"
	"schemaevo/internal/sqlddl/dialect"
)

// seedCorpus seeds a fuzz target with one dialect's conformance corpus
// (plus the neutral corpus, so cross-dialect bytes reach every adapter).
func seedCorpus(f *testing.F, names ...string) {
	f.Helper()
	for _, name := range names {
		files, err := filepath.Glob(filepath.Join(corporaDir, name, "*.sql"))
		if err != nil || len(files) == 0 {
			f.Fatalf("no %s corpus files: %v", name, err)
		}
		for _, path := range files {
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(data))
		}
	}
}

// fuzzParseDialect is the shared body of the per-dialect fuzzers.
// Whatever bytes arrive, the adapter must return a script (degrading via
// Errors, never panicking), and a block comment full of every dialect's
// evidence, appended to the input, must not change what the dialect's
// own reading scores: a comment never votes. (The render round trip
// under every profile is sqlddl's FuzzParse.)
func fuzzParseDialect(f *testing.F, name string) {
	d, ok := dialect.ByName(name)
	if !ok {
		f.Fatalf("unknown dialect %s", name)
	}
	seedCorpus(f, name, "neutral")
	f.Fuzz(func(t *testing.T, src string) {
		if core.ParseWith(d, src) == nil {
			t.Fatal("nil script")
		}
		const comment = "\n/* engine auto_increment # serial jsonb :: x[1 autoincrement [y pragma */"
		before, after := ownScore(d, dialect.Score(src)), ownScore(d, dialect.Score(src+comment))
		if before != after {
			t.Fatalf("a comment voted: %s score %d, %d with the comment appended", name, before, after)
		}
	})
}

// ownScore picks d's field out of s.
func ownScore(d core.Dialect, s dialect.Scores) int {
	switch d.ID() {
	case core.DialectMySQL:
		return s.MySQL
	case core.DialectPostgres:
		return s.Postgres
	}
	return s.SQLite
}

// FuzzParseMySQL: go test -run '^FuzzParseMySQL$' -fuzz '^FuzzParseMySQL$' ./internal/sqlddl/dialect
func FuzzParseMySQL(f *testing.F) { fuzzParseDialect(f, "mysql") }

// FuzzParsePostgres: go test -run '^FuzzParsePostgres$' -fuzz '^FuzzParsePostgres$' ./internal/sqlddl/dialect
func FuzzParsePostgres(f *testing.F) { fuzzParseDialect(f, "postgres") }

// FuzzParseSQLite: go test -run '^FuzzParseSQLite$' -fuzz '^FuzzParseSQLite$' ./internal/sqlddl/dialect
func FuzzParseSQLite(f *testing.F) { fuzzParseDialect(f, "sqlite") }

// FuzzDetectDialect: detection must be total (no panics, a valid ID) and
// self-consistent — re-scoring the same bytes yields the same scores, and
// the winner reported by DetectID matches the full Score breakdown.
func FuzzDetectDialect(f *testing.F) {
	seedCorpus(f, "mysql", "postgres", "sqlite", "neutral")
	f.Fuzz(func(t *testing.T, src string) {
		id := dialect.DetectID(src)
		if !id.Valid() {
			t.Fatalf("detected invalid dialect id %d", id)
		}
		s1, s2 := dialect.Score(src), dialect.Score(src)
		if s1 != s2 {
			t.Fatalf("detection not deterministic: %+v vs %+v", s1, s2)
		}
		if got := dialect.Detect(src).ID(); got != id {
			t.Fatalf("Detect/DetectID disagree: %v vs %v", got, id)
		}
	})
}

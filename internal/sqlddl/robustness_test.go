package sqlddl

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestParseNeverPanicsOnArbitraryInput: Parse must terminate and never
// panic for any string.
func TestParseNeverPanicsOnArbitraryInput(t *testing.T) {
	f := func(s string) bool {
		script := Parse(s)
		return script != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestParseNeverPanicsOnSQLLikeInput stresses the parser with random
// mashups of SQL tokens — far more likely to reach deep parser states
// than uniformly random strings.
func TestParseNeverPanicsOnSQLLikeInput(t *testing.T) {
	vocab := []string{
		"CREATE", "TABLE", "ALTER", "DROP", "ADD", "COLUMN", "PRIMARY", "KEY",
		"FOREIGN", "REFERENCES", "UNIQUE", "CHECK", "CONSTRAINT", "NOT", "NULL",
		"DEFAULT", "INT", "VARCHAR(10)", "TEXT", "t", "a", "b", "(", ")", ",",
		";", "'str'", "42", "=", "IF", "EXISTS", "RENAME", "TO", "MODIFY",
		"CHANGE", "INDEX", "ON", "`q`", `"Q"`, ".", "::", "USING", "CASCADE",
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(30) + 1
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteString(vocab[rng.Intn(len(vocab))])
			sb.WriteByte(' ')
		}
		src := sb.String()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", src, r)
				}
			}()
			Parse(src)
		}()
	}
}

// TestParsedStatementsAreConsistent: every successfully parsed statement
// renders to SQL that parses again without error (weak round trip over
// random SQL-like soup).
func TestParsedStatementsAreConsistent(t *testing.T) {
	vocab := []string{
		"CREATE TABLE t (a INT)",
		"CREATE TABLE u (x TEXT, y INT, PRIMARY KEY (x))",
		"ALTER TABLE t ADD COLUMN z DATE",
		"ALTER TABLE t DROP COLUMN a",
		"DROP TABLE IF EXISTS u",
		"CREATE UNIQUE INDEX i ON t (a)",
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		var parts []string
		for i := 0; i <= rng.Intn(5); i++ {
			parts = append(parts, vocab[rng.Intn(len(vocab))])
		}
		src := strings.Join(parts, ";\n")
		script := Parse(src)
		if len(script.Errors) != 0 {
			t.Fatalf("valid script failed: %v\n%s", script.Errors, src)
		}
		re := Parse(RenderScript(script, LexProfile{}))
		if len(re.Errors) != 0 {
			t.Fatalf("rendered script failed: %v", re.Errors)
		}
		if len(re.Statements) != len(script.Statements) {
			t.Fatalf("statement count changed: %d vs %d", len(re.Statements), len(script.Statements))
		}
	}
}

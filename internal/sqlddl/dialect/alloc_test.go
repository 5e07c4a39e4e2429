package dialect_test

import (
	"testing"

	core "schemaevo/internal/sqlddl"
	"schemaevo/internal/sqlddl/dialect"
)

// Per-dialect allocation budgets. The core budgets (internal/sqlddl)
// pin the generic union path; these pin the same zero-copy discipline
// through each adapter's lexer profile and quirks, each on a statement
// written in its own dialect's syntax.

// allocScripts holds an escape-free, memoizable script per dialect.
var allocScripts = map[string]string{
	"mysql": "CREATE TABLE `users` (`id` INT AUTO_INCREMENT, `name` VARCHAR(255) NOT NULL, PRIMARY KEY (`id`)) ENGINE=InnoDB;\n" +
		"ALTER TABLE `users` ADD COLUMN `created_at` TIMESTAMP;\n" +
		"CREATE INDEX idx_users_name ON `users` (`name`);\n",
	"postgres": "CREATE TABLE users (id serial PRIMARY KEY, name varchar(255) NOT NULL, tags text[] DEFAULT '{}'::text[]);\n" +
		"ALTER TABLE users ADD COLUMN created_at timestamptz;\n" +
		"CREATE INDEX idx_users_name ON users (name);\n",
	"sqlite": "CREATE TABLE users (id INTEGER PRIMARY KEY AUTOINCREMENT, name TEXT NOT NULL, profile);\n" +
		"ALTER TABLE users ADD COLUMN created_at TEXT;\n" +
		"CREATE INDEX idx_users_name ON users (name);\n",
}

// TestAllocBudgetDialectLex: lexing an escape-free own-dialect statement
// allocates nothing, whatever the active profile.
func TestAllocBudgetDialectLex(t *testing.T) {
	for _, d := range dialect.All() {
		t.Run(d.Name(), func(t *testing.T) {
			src := allocScripts[d.Name()]
			lx := core.NewLexerProfile(src, d.LexProfile())
			allocs := testing.AllocsPerRun(200, func() {
				lx.Reset(src)
				for {
					if tok := lx.Next(); tok.Kind == core.EOF {
						break
					}
				}
			})
			if allocs > 0 {
				t.Errorf("lexing: %.1f allocs/run, want 0", allocs)
			}
		})
	}
}

// TestAllocBudgetDialectParseWarm: a fully memoized re-parse stays
// allocation-free under every adapter.
func TestAllocBudgetDialectParseWarm(t *testing.T) {
	for _, d := range dialect.All() {
		t.Run(d.Name(), func(t *testing.T) {
			src := allocScripts[d.Name()]
			sess := core.NewSession()
			sess.SetDialect(d)
			units := sess.ParseUnits(src, nil)
			allocs := testing.AllocsPerRun(200, func() {
				units = sess.ParseUnits(src, units[:0])
			})
			if allocs > 0 {
				t.Errorf("memoized re-parse: %.1f allocs/run, want 0", allocs)
			}
		})
	}
}

// TestAllocBudgetDialectParseCold: a cold parse (statement cache
// cleared between runs; the intern table stays warm, as it does across
// files of one project) stays within the largest adapter's measured count
// plus the quarter of slack the core budgets allow.
func TestAllocBudgetDialectParseCold(t *testing.T) {
	const budget = 15 // measured 6 (sqlite), 8 (postgres) and 12 (mysql)
	for _, d := range dialect.All() {
		t.Run(d.Name(), func(t *testing.T) {
			src := allocScripts[d.Name()]
			sess := core.NewSession()
			sess.SetDialect(d)
			var units []core.Unit
			units = sess.ParseUnits(src, units) // warm the intern table
			allocs := testing.AllocsPerRun(100, func() {
				sess.ClearCache()
				units = sess.ParseUnits(src, units[:0])
			})
			if allocs > budget {
				t.Errorf("cold parse: %.1f allocs/run, budget %d", allocs, budget)
			}
		})
	}
}

// TestAllocBudgetDetect: detection's three readings allocate nothing.
func TestAllocBudgetDetect(t *testing.T) {
	for name, src := range allocScripts {
		if allocs := testing.AllocsPerRun(100, func() { dialect.DetectID(src) }); allocs > 0 {
			t.Errorf("%s: detection %.1f allocs/run, want 0", name, allocs)
		}
	}
}

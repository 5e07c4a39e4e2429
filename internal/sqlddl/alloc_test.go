package sqlddl

import "testing"

// Allocation budgets for the lexing/parsing hot path. These pin the
// zero-copy discipline: lexing an escape-free statement must not allocate
// at all, and re-parsing a script whose statements are memoized in the
// session must stay within a handful of allocations per call. Budgets are
// ceilings, not exact counts: the measured count plus a quarter of slack.
// Shrink them if the path gets leaner, but a jump means a zero-copy
// invariant broke.

const allocStmt = "CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(255) NOT NULL, email TEXT, org_id INT REFERENCES orgs (id));"

const allocScript = allocStmt + `
CREATE TABLE orgs (id INT PRIMARY KEY, title TEXT DEFAULT 'n/a');
ALTER TABLE users ADD COLUMN created_at TIMESTAMP;
CREATE INDEX idx_users_org ON users (org_id);
`

func TestAllocBudgetLexOneStatement(t *testing.T) {
	lx := NewLexer(allocStmt)
	allocs := testing.AllocsPerRun(200, func() {
		lx.Reset(allocStmt)
		for {
			if tok := lx.Next(); tok.Kind == EOF {
				break
			}
		}
	})
	if allocs > 0 {
		t.Errorf("lexing one escape-free statement: %.1f allocs/run, want 0", allocs)
	}
}

func TestAllocBudgetParseOneScriptWarm(t *testing.T) {
	sess := NewSession()
	units := sess.ParseUnits(allocScript, nil) // warm the statement cache
	allocs := testing.AllocsPerRun(200, func() {
		units = sess.ParseUnits(allocScript, units[:0])
	})
	// A fully memoized re-parse scans the script for statement boundaries
	// and resolves every statement from the cache; nothing on that path
	// allocates.
	if allocs > 0 {
		t.Errorf("re-parsing a memoized script: %.1f allocs/run, want 0", allocs)
	}
}

func TestAllocBudgetParseOneScriptCold(t *testing.T) {
	sess := NewSession()
	var units []Unit
	allocs := testing.AllocsPerRun(100, func() {
		sess.ClearCache()
		clear(sess.interned) // cold: intern table hits would hide the cost
		units = sess.ParseUnits(allocScript, units[:0])
	})
	// A cold parse builds the ASTs, the cache entries, and the interned
	// names; the budget bounds that inherent cost so it cannot creep.
	// Measured 24 (27 while CREATE TABLE columns grew by append); the
	// budget is that plus a quarter.
	const budget = 30
	if allocs > budget {
		t.Errorf("cold-parsing the script: %.1f allocs/run, budget %d", allocs, budget)
	}
}

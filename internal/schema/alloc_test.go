package schema

import (
	"fmt"
	"testing"
)

// Allocation budgets for incremental version application. The dominant
// per-version costs under reconstruction are (a) re-building an unchanged
// version — a copy-on-write clone resolved entirely from caches — and
// (b) extending the previous version by one statement. Both must stay
// within a small constant number of allocations regardless of how the
// statements are phrased, because every allocation here is paid per
// version per project across the whole corpus.

const allocV1 = `
CREATE TABLE users (id INT PRIMARY KEY, name TEXT, email TEXT);
CREATE TABLE orgs (id INT PRIMARY KEY, title TEXT);
`

const allocV2 = allocV1 + `ALTER TABLE users ADD COLUMN created_at TIMESTAMP;`

func TestAllocBudgetApplyUnchangedVersion(t *testing.T) {
	rc := NewReconstructor()
	rc.Build(allocV2) // warm: caches populated, chain established
	rc.Build(allocV2)
	allocs := testing.AllocsPerRun(200, func() {
		rc.Build(allocV2)
	})
	// Re-building an unchanged version is a COW clone: the schema header,
	// its table map and order slice, and the copied note slice headers.
	const budget = 8
	if allocs > budget {
		t.Errorf("re-building an unchanged version: %.1f allocs/run, budget %d", allocs, budget)
	}
}

func TestAllocBudgetApplyOneVersion(t *testing.T) {
	rc := NewReconstructor()
	rc.Build(allocV1)
	rc.Build(allocV2) // warm both versions' statements and protos
	allocs := testing.AllocsPerRun(200, func() {
		rc.Build(allocV1) // rewind the chain (full rebuild, all cache hits)
		rc.Build(allocV2) // then extend it by one ALTER statement
	})
	// Two versions per run: the rebuilt base (schema + shared prototypes)
	// plus the incremental extension (COW clone + one cloned table for the
	// ALTER's copy-on-write).
	const budget = 24
	if allocs > budget {
		t.Errorf("rebuilding base + applying one version: %.1f allocs/run, budget %d", allocs, budget)
	}
}

func TestAllocBudgetBuildAddsCreateTable(t *testing.T) {
	const runs = 200
	// One successor version per run, each adding a CREATE TABLE the
	// reconstructor has not seen, so every run lexes, parses and builds
	// that statement cold on top of a fully cached base.
	versions := make([]string, runs+1)
	for i := range versions {
		versions[i] = allocV1 + fmt.Sprintf("CREATE TABLE audit%d (id INT PRIMARY KEY, actor_id INT REFERENCES users (id), action VARCHAR(64) NOT NULL, detail TEXT, at TIMESTAMP);", i)
	}
	rc := NewReconstructor()
	rc.Build(allocV1)
	rc.Build(versions[0]) // warm the base, the intern table and the type memo
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		rc.Build(allocV1) // rewind the chain (full rebuild, all cache hits)
		rc.Build(versions[next])
		next++
	})
	// The rebuilt base as in TestAllocBudgetApplyOneVersion, then the new
	// statement: its AST (columns copied out of parser scratch at exact
	// size), the table built from it (columns presized, types resolved
	// through the reconstructor's memo), its interned name, and the COW
	// clone the version extends. Measured 24 (40 with the columns grown
	// by append and every type normalized afresh); the budget adds a
	// quarter.
	const budget = 30
	if allocs > budget {
		t.Errorf("rebuilding base + adding one CREATE TABLE: %.1f allocs/run, budget %d", allocs, budget)
	}
}

func TestAllocBudgetCloneAddTable(t *testing.T) {
	// The common growth step of a history: the next version is a COW
	// clone of the last one plus one new table. Sizes straddle the map's
	// group and table boundaries, where an exactly sized clone grows.
	for _, n := range []int{1, 7, 8, 20, 56, 100} {
		s := New()
		for i := 0; i < n; i++ {
			s.AddTable(&Table{Name: fmt.Sprintf("t%d", i)})
		}
		added := &Table{Name: "added"}
		allocs := testing.AllocsPerRun(100, func() {
			s.CloneCOW().AddTable(added)
		})
		// The schema header, its order slice and its table map; the
		// map is one allocation up to 8 entries and three beyond.
		// Measured 3 and 5 (4 to 8 while the clone was sized exactly
		// and the add grew it). No slack: the counts are exact.
		budget := 3.0
		if n+1 > 8 {
			budget = 5
		}
		if allocs > budget {
			t.Errorf("%d tables: COW clone plus one added table: %.1f allocs/run, budget %.0f", n, allocs, budget)
		}
	}
}

package diff

import (
	"testing"

	"schemaevo/internal/schema"
)

// Allocation budget for the per-version diff. With pooled name scratch and
// the copy-on-write pointer fast path, diffing two versions that share
// most tables allocates only the Delta itself plus the per-changed-table
// maps — a budget, not an exact count, so leaner is fine and a jump is a
// regression.
func TestAllocBudgetDiffTwoSchemas(t *testing.T) {
	oldS, _ := schema.ParseAndBuild(`
CREATE TABLE users (id INT PRIMARY KEY, name TEXT, email TEXT);
CREATE TABLE orgs (id INT PRIMARY KEY, title TEXT);
CREATE TABLE audit (id INT PRIMARY KEY, entry TEXT, at TIMESTAMP);
`)
	// The common reconstruction shape: the new version shares two tables
	// pointer-identically (copy-on-write) and changes one.
	newS := oldS.CloneCOW()
	changed, _ := schema.ParseAndBuild(`CREATE TABLE users (id INT PRIMARY KEY, name TEXT, email TEXT, age INT);`)
	ut, _ := changed.Table("users")
	newS.AddTable(ut)

	var d *Delta
	allocs := testing.AllocsPerRun(200, func() {
		d = Schemas(oldS, newS)
	})
	if d.Total() != 1 {
		t.Fatalf("sanity: delta total = %d, want 1", d.Total())
	}
	const budget = 12
	if allocs > budget {
		t.Errorf("diffing two mostly-shared schemas: %.1f allocs/run, budget %d", allocs, budget)
	}
}

// TestDeltaChangesExactSize pins the copy-out of Schemas' pooled change
// buffer: the changes are allocated once at their exact size, and a delta
// without changes carries none.
func TestDeltaChangesExactSize(t *testing.T) {
	s, _ := schema.ParseAndBuild(`
CREATE TABLE users (id INT PRIMARY KEY, name TEXT, email TEXT, bio TEXT, age INT);
CREATE TABLE orgs (id INT PRIMARY KEY, title TEXT, url TEXT);
`)
	d := Schemas(nil, s)
	if len(d.Changes) != 8 || cap(d.Changes) != len(d.Changes) {
		t.Errorf("birth delta: len %d cap %d, want 8 and 8", len(d.Changes), cap(d.Changes))
	}
	if d := Schemas(s, s.CloneCOW()); d.Changes != nil {
		t.Errorf("unchanged schema: Changes = %v, want nil", d.Changes)
	}
	want := append([]AttrChange(nil), d.Changes...)
	Schemas(s, nil) // eight different changes through the same pooled buffer
	for i := range want {
		if d.Changes[i] != want[i] {
			t.Fatalf("a later diff overwrote change %d: %v, want %v", i, d.Changes[i], want[i])
		}
	}
}

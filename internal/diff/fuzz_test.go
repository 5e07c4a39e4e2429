package diff

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"schemaevo/internal/schema"
)

// FuzzDiff fuzzes the schema differ through the real input path: two DDL
// sources are parsed and built into logical schemas, then diffed both
// ways. Run with
//
//	go test -fuzz=FuzzDiff ./internal/diff
//
// Without -fuzz the seeds run as a regular test. The checked invariants
// are the accounting identities the metrics layer relies on, plus the
// inversion relation between Schemas(a, b) and Schemas(b, a).
func FuzzDiff(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*", "*.sql"))
	if err != nil {
		f.Fatal(err)
	}
	var contents []string
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		contents = append(contents, string(data))
	}
	for i, c := range contents {
		f.Add(c, contents[(i+1)%len(contents)])
	}
	f.Add("CREATE TABLE t (a INT);", "CREATE TABLE t (a BIGINT, b TEXT);")
	f.Add("CREATE TABLE t (a INT PRIMARY KEY);", "CREATE TABLE t (a INT);")
	f.Add("CREATE TABLE t (a INT);", "DROP TABLE t;")
	f.Add("", "CREATE TABLE x (y INT, z INT, PRIMARY KEY (y, z));")
	f.Add(";;;", "'unterminated")

	f.Fuzz(func(t *testing.T, oldSrc, newSrc string) {
		oldS, _ := schema.ParseAndBuild(oldSrc)
		newS, _ := schema.ParseAndBuild(newSrc)

		d := Schemas(oldS, newS)
		// Accounting identities: every recorded change is counted exactly
		// once, and the expansion/maintenance split partitions the total.
		if d.Total() != len(d.Changes) {
			t.Fatalf("Total() = %d but %d changes recorded", d.Total(), len(d.Changes))
		}
		if d.Expansion()+d.Maintenance() != d.Total() {
			t.Fatalf("expansion %d + maintenance %d != total %d",
				d.Expansion(), d.Maintenance(), d.Total())
		}
		counted := d.NBornWithTable + d.NInjected + d.NDeletedWithTable +
			d.NEjected + d.NTypeChanged + d.NKeyChanged
		if counted != d.Total() {
			t.Fatalf("kind counters sum to %d, total %d", counted, d.Total())
		}

		// Inversion: diffing the other way round mirrors every count —
		// what one direction births or injects, the other deletes or
		// ejects — and swaps the added and dropped table sets.
		inv := Schemas(newS, oldS)
		if inv.NBornWithTable != d.NDeletedWithTable || inv.NDeletedWithTable != d.NBornWithTable ||
			inv.NInjected != d.NEjected || inv.NEjected != d.NInjected ||
			inv.NTypeChanged != d.NTypeChanged || inv.NKeyChanged != d.NKeyChanged {
			t.Fatalf("inverse diff does not mirror:\n  a→b %+v\n  b→a %+v", d, inv)
		}
		if !sameSet(inv.TablesAdded, d.TablesDropped) || !sameSet(inv.TablesDropped, d.TablesAdded) {
			t.Fatalf("inverse diff swaps tables wrongly: a→b added %v dropped %v, b→a added %v dropped %v",
				d.TablesAdded, d.TablesDropped, inv.TablesAdded, inv.TablesDropped)
		}

		// Self-diff must be empty: a schema never differs from itself.
		if self := Schemas(newS, newS); !self.IsZero() {
			t.Fatalf("self-diff not zero: %+v", self)
		}

		// Re-parsing the same source must yield an equivalent schema.
		again, _ := schema.ParseAndBuild(newSrc)
		if rebuilt := Schemas(newS, again); !rebuilt.IsZero() {
			t.Fatalf("re-parsed schema differs from itself: %+v", rebuilt)
		}

		// Schema birth from nil counts every attribute of every table.
		birth := Schemas(nil, newS)
		if birth.Maintenance() != 0 {
			t.Fatalf("birth delta has maintenance changes: %+v", birth)
		}
		if birth.NBornWithTable != newS.AttributeCount() {
			t.Fatalf("birth counts %d attributes, schema has %d",
				birth.NBornWithTable, newS.AttributeCount())
		}

		// Death to nil is the mirror image.
		death := Schemas(newS, nil)
		if death.Expansion() != 0 || death.NDeletedWithTable != newS.AttributeCount() {
			t.Fatalf("death delta inconsistent: %+v vs %d attrs", death, newS.AttributeCount())
		}
	})
}

// sameSet reports whether a and b hold the same names, in any order.
func sameSet(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

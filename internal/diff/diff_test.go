package diff

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"schemaevo/internal/schema"
)

func buildSchema(t *testing.T, src string) *schema.Schema {
	t.Helper()
	s, notes := schema.ParseAndBuild(src)
	if len(notes) != 0 {
		t.Fatalf("notes building %q: %v", src, notes)
	}
	return s
}

func TestBirthFromEmpty(t *testing.T) {
	s := buildSchema(t, `CREATE TABLE a (x INT, y TEXT); CREATE TABLE b (z INT);`)
	d := Schemas(nil, s)
	if d.NBornWithTable != 3 || d.Total() != 3 {
		t.Errorf("birth delta: %+v", d)
	}
	if len(d.TablesAdded) != 2 {
		t.Errorf("tables added: %v", d.TablesAdded)
	}
	if d.Expansion() != 3 || d.Maintenance() != 0 {
		t.Errorf("expansion/maintenance: %d/%d", d.Expansion(), d.Maintenance())
	}
}

func TestNoChange(t *testing.T) {
	src := `CREATE TABLE a (x INT, y VARCHAR(10), PRIMARY KEY (x));`
	d := Schemas(buildSchema(t, src), buildSchema(t, src))
	if !d.IsZero() {
		t.Errorf("expected zero delta, got %+v changes %v", d, d.Changes)
	}
}

func TestDialectSynonymsAreNotChanges(t *testing.T) {
	old := buildSchema(t, `CREATE TABLE a (x INTEGER, b BOOLEAN, v CHARACTER VARYING(30));`)
	new := buildSchema(t, `CREATE TABLE a (x INT, b BOOL, v VARCHAR(30));`)
	d := Schemas(old, new)
	if !d.IsZero() {
		t.Errorf("synonym re-dump produced changes: %v", d.Changes)
	}
}

func TestInjectionAndEjection(t *testing.T) {
	old := buildSchema(t, `CREATE TABLE a (x INT, gone TEXT);`)
	new := buildSchema(t, `CREATE TABLE a (x INT, fresh DATE);`)
	d := Schemas(old, new)
	if d.NInjected != 1 || d.NEjected != 1 || d.Total() != 2 {
		t.Errorf("delta: %+v changes %v", d, d.Changes)
	}
	if d.Expansion() != 1 || d.Maintenance() != 1 {
		t.Errorf("expansion/maintenance: %d/%d", d.Expansion(), d.Maintenance())
	}
}

func TestTableDrop(t *testing.T) {
	old := buildSchema(t, `CREATE TABLE a (x INT); CREATE TABLE b (p INT, q INT);`)
	new := buildSchema(t, `CREATE TABLE a (x INT);`)
	d := Schemas(old, new)
	if d.NDeletedWithTable != 2 || len(d.TablesDropped) != 1 || d.TablesDropped[0] != "b" {
		t.Errorf("delta: %+v", d)
	}
}

func TestTypeChange(t *testing.T) {
	old := buildSchema(t, `CREATE TABLE a (x INT, y VARCHAR(10));`)
	new := buildSchema(t, `CREATE TABLE a (x BIGINT, y VARCHAR(20));`)
	d := Schemas(old, new)
	if d.NTypeChanged != 2 || d.Total() != 2 {
		t.Errorf("delta: %+v changes %v", d, d.Changes)
	}
}

func TestKeyChange(t *testing.T) {
	old := buildSchema(t, `CREATE TABLE a (x INT, y INT);`)
	new := buildSchema(t, `CREATE TABLE a (x INT, y INT, PRIMARY KEY (x));`)
	d := Schemas(old, new)
	if d.NKeyChanged != 1 {
		t.Errorf("pk gain: %+v changes %v", d, d.Changes)
	}

	old2 := buildSchema(t, `CREATE TABLE b (r INT);`)
	new2 := buildSchema(t, `CREATE TABLE b (r INT REFERENCES other(id));`)
	d2 := Schemas(old2, new2)
	if d2.NKeyChanged != 1 {
		t.Errorf("fk gain: %+v changes %v", d2, d2.Changes)
	}
}

func TestTypeChangeTakesPrecedenceOverKeyChange(t *testing.T) {
	old := buildSchema(t, `CREATE TABLE a (x INT);`)
	new := buildSchema(t, `CREATE TABLE a (x BIGINT, PRIMARY KEY (x));`)
	d := Schemas(old, new)
	if d.NTypeChanged != 1 || d.NKeyChanged != 0 || d.Total() != 1 {
		t.Errorf("attribute double-counted: %+v changes %v", d, d.Changes)
	}
}

func TestRenameCountsAsDropPlusAdd(t *testing.T) {
	old := buildSchema(t, `CREATE TABLE old_name (x INT, y INT);`)
	new := buildSchema(t, `CREATE TABLE new_name (x INT, y INT);`)
	d := Schemas(old, new)
	if d.NBornWithTable != 2 || d.NDeletedWithTable != 2 {
		t.Errorf("rename delta: %+v", d)
	}
}

func TestDeterministicOrder(t *testing.T) {
	old := buildSchema(t, `CREATE TABLE z (a INT); CREATE TABLE m (b INT);`)
	new := buildSchema(t, `CREATE TABLE z (a INT, c INT); CREATE TABLE k (d INT);`)
	d1 := Schemas(old, new)
	d2 := Schemas(old, new)
	if len(d1.Changes) != len(d2.Changes) {
		t.Fatal("non-deterministic change count")
	}
	for i := range d1.Changes {
		if d1.Changes[i] != d2.Changes[i] {
			t.Errorf("change %d differs: %v vs %v", i, d1.Changes[i], d2.Changes[i])
		}
	}
	// Tables are visited in sorted order.
	if d1.TablesAdded[0] != "k" {
		t.Errorf("added order: %v", d1.TablesAdded)
	}
}

func TestCountsMatchDetail(t *testing.T) {
	old := buildSchema(t, `CREATE TABLE a (x INT, y TEXT); CREATE TABLE b (p INT);`)
	new := buildSchema(t, `CREATE TABLE a (x BIGINT, z DATE); CREATE TABLE c (q INT, r INT);`)
	d := Schemas(old, new)
	byKind := map[ChangeKind]int{}
	for _, c := range d.Changes {
		byKind[c.Kind]++
	}
	if byKind[BornWithTable] != d.NBornWithTable || byKind[Injected] != d.NInjected ||
		byKind[DeletedWithTable] != d.NDeletedWithTable || byKind[Ejected] != d.NEjected ||
		byKind[TypeChanged] != d.NTypeChanged || byKind[KeyChanged] != d.NKeyChanged {
		t.Errorf("counts disagree with detail: %+v vs %v", d, byKind)
	}
	if len(d.Changes) != d.Total() {
		t.Errorf("Total()=%d but %d detailed changes", d.Total(), len(d.Changes))
	}
}

// TestDiffSymmetryProperty: swapping the arguments swaps expansion-like
// and deletion-like counts, and type/key change counts are symmetric.
func TestDiffSymmetryProperty(t *testing.T) {
	gen := func(seed uint8) *schema.Schema {
		s := schema.New()
		n := int(seed%4) + 1
		for i := 0; i < n; i++ {
			tbl := &schema.Table{Name: string(rune('a' + i))}
			cols := int(seed>>2)%3 + 1
			for j := 0; j < cols; j++ {
				typ := "int"
				if (int(seed)+i+j)%2 == 0 {
					typ = "text"
				}
				tbl.Columns = append(tbl.Columns, schema.Column{Name: string(rune('p' + j)), Type: typ})
			}
			s.AddTable(tbl)
		}
		return s
	}
	f := func(a, b uint8) bool {
		s1, s2 := gen(a), gen(b)
		d12 := Schemas(s1, s2)
		d21 := Schemas(s2, s1)
		return d12.NBornWithTable == d21.NDeletedWithTable &&
			d12.NDeletedWithTable == d21.NBornWithTable &&
			d12.NInjected == d21.NEjected &&
			d12.NEjected == d21.NInjected &&
			d12.NTypeChanged == d21.NTypeChanged &&
			d12.NKeyChanged == d21.NKeyChanged
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChangeKindStrings(t *testing.T) {
	kinds := []ChangeKind{BornWithTable, Injected, DeletedWithTable, Ejected, TypeChanged, KeyChanged}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has bad string %q", int(k), s)
		}
		seen[s] = true
	}
}

// TestSequenceMatchesSchemas pins Sequence, which carries each version's
// sorted table names into the next pair, to pairwise Schemas calls over a
// chain with births, drops, renames, repeats and empty versions.
func TestSequenceMatchesSchemas(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*", "*.sql"))
	if err != nil {
		t.Fatal(err)
	}
	srcs := []string{
		"CREATE TABLE t (a INT);",
		"CREATE TABLE t (a BIGINT, b TEXT); CREATE TABLE u (c INT);",
		"CREATE TABLE t (a BIGINT, b TEXT); CREATE TABLE u (c INT); ALTER TABLE u RENAME TO t;",
		"",
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, string(data))
	}
	var chain []*schema.Schema
	for _, src := range srcs {
		s, _ := schema.ParseAndBuild(src)
		chain = append(chain, s, s) // a repeat: every table pointer-identical
	}
	chain = append(chain, nil)
	for _, first := range []*schema.Schema{nil, chain[1]} {
		seq := NewSequence(first)
		prev := first
		for i, s := range chain {
			got, want := seq.Next(s), Schemas(prev, s)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("version %d: Sequence delta %+v, Schemas delta %+v", i, got, want)
			}
			prev = s
		}
		seq.Close()
	}
}

// Package schema models the logical level of a relational database schema —
// tables, attributes (columns), primary and foreign keys — and evolves it by
// applying parsed DDL scripts. This is the level of abstraction at which the
// paper measures change: physical artifacts (indexes, storage options,
// views) are recognized but excluded, matching the unit of measurement of
// §3.2 of the paper (the number of affected attributes).
package schema

import (
	"fmt"
	"sort"
	"strings"
)

// Column is a single attribute of a table.
type Column struct {
	Name string
	// Type is the normalized data type (see NormalizeType).
	Type string
	// NotNull, Default, HasDefault and AutoIncrement mirror the parsed
	// column attributes that participate in maintenance-change detection.
	NotNull       bool
	Default       string
	HasDefault    bool
	AutoIncrement bool
	// InPK reports whether the column participates in the primary key.
	InPK bool
}

// ForeignKey is a referential constraint of a table.
type ForeignKey struct {
	// Name is the constraint name; synthesized when anonymous.
	Name       string
	Columns    []string
	RefTable   string
	RefColumns []string
}

// Table is a base table of the logical schema.
type Table struct {
	Name    string
	Columns []Column // in definition order
	// PrimaryKey lists the PK columns in key order (empty = no PK).
	PrimaryKey  []string
	ForeignKeys []ForeignKey
	// Uniques lists unique constraints as column-name lists.
	Uniques [][]string
	// shared marks a table referenced by more than one snapshot (see
	// Schema.CloneCOW); the apply path clones it before any mutation.
	shared bool
}

// Column returns the column with the given name and whether it exists.
func (t *Table) Column(name string) (*Column, bool) {
	for i := range t.Columns {
		if t.Columns[i].Name == name {
			return &t.Columns[i], true
		}
	}
	return nil, false
}

// ColumnNames returns the column names in definition order.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Name
	}
	return out
}

// copySlice returns an owned copy of s, preserving nil-ness (the cache
// codec encodes nil and empty slices distinctly, so clones must not
// collapse one into the other).
func copySlice[E any](s []E) []E {
	if s == nil {
		return nil
	}
	out := make([]E, len(s))
	copy(out, s)
	return out
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	ct := &Table{Name: t.Name}
	ct.Columns = copySlice(t.Columns)
	ct.PrimaryKey = copySlice(t.PrimaryKey)
	if t.ForeignKeys != nil {
		ct.ForeignKeys = make([]ForeignKey, len(t.ForeignKeys))
		for i, fk := range t.ForeignKeys {
			ct.ForeignKeys[i] = ForeignKey{
				Name:       fk.Name,
				Columns:    copySlice(fk.Columns),
				RefTable:   fk.RefTable,
				RefColumns: copySlice(fk.RefColumns),
			}
		}
	}
	if t.Uniques != nil {
		ct.Uniques = make([][]string, len(t.Uniques))
		for i, u := range t.Uniques {
			ct.Uniques[i] = copySlice(u)
		}
	}
	return ct
}

// setPrimaryKey installs a primary key, updating the per-column InPK and
// NotNull flags (PK columns are implicitly NOT NULL).
func (t *Table) setPrimaryKey(cols []string) {
	for i := range t.Columns {
		t.Columns[i].InPK = false
	}
	t.PrimaryKey = append([]string(nil), cols...)
	for _, name := range cols {
		if c, ok := t.Column(name); ok {
			c.InPK = true
			c.NotNull = true
		}
	}
}

// Schema is a set of base tables. The zero value is not usable; call New.
type Schema struct {
	tables map[string]*Table
	order  []string // insertion order, for deterministic iteration
}

// New returns an empty schema.
func New() *Schema {
	return &Schema{tables: make(map[string]*Table)}
}

// NewWithCapacity returns an empty schema pre-sized for n tables, for
// builders that know the table count up front (e.g. the flat cache
// decoder, which rebuilds each version's schema from a table pool).
// Decoded snapshots may hold arena-backed string views into a read-only
// buffer (see internal/pipeline flatcodec); such schemas must be Sealed
// before publication so every mutation path copies tables instead of
// writing through the shared views.
func NewWithCapacity(n int) *Schema {
	return &Schema{tables: make(map[string]*Table, n), order: make([]string, 0, n)}
}

// TableCount returns the number of tables.
func (s *Schema) TableCount() int { return len(s.tables) }

// AttributeCount returns the total number of attributes across all tables.
func (s *Schema) AttributeCount() int {
	n := 0
	for _, t := range s.tables {
		n += len(t.Columns)
	}
	return n
}

// Table returns the named table and whether it exists.
func (s *Schema) Table(name string) (*Table, bool) {
	t, ok := s.tables[name]
	return t, ok
}

// Tables returns all tables in insertion order.
func (s *Schema) Tables() []*Table {
	return s.AppendTables(make([]*Table, 0, len(s.order)))
}

// AppendTables appends the tables in insertion order to buf and returns
// it, allocating only when buf lacks capacity. Like AppendTableNames it
// repeats a table whose name repeats in the insertion order.
func (s *Schema) AppendTables(buf []*Table) []*Table {
	for _, name := range s.order {
		if t, ok := s.tables[name]; ok {
			buf = append(buf, t)
		}
	}
	return buf
}

// AppendTableNames appends the table names in insertion order to buf and
// returns it, allocating only when buf lacks capacity. Names can repeat
// if a rename collided with an existing table; set-like callers must
// dedupe.
func (s *Schema) AppendTableNames(buf []string) []string {
	for _, name := range s.order {
		if _, ok := s.tables[name]; ok {
			buf = append(buf, name)
		}
	}
	return buf
}

// TableNames returns the sorted table names.
func (s *Schema) TableNames() []string {
	out := make([]string, 0, len(s.tables))
	for name := range s.tables {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// AddTable inserts or replaces a table.
func (s *Schema) AddTable(t *Table) {
	if _, exists := s.tables[t.Name]; !exists {
		s.order = append(s.order, t.Name)
	}
	s.tables[t.Name] = t
}

// DropTable removes a table; it reports whether the table existed.
func (s *Schema) DropTable(name string) bool {
	if _, ok := s.tables[name]; !ok {
		return false
	}
	delete(s.tables, name)
	for i, n := range s.order {
		if n == name {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	return true
}

// renameTable renames a table in place, preserving order position.
func (s *Schema) renameTable(old, new string) bool {
	t, ok := s.tables[old]
	if !ok {
		return false
	}
	t = s.writable(t)
	delete(s.tables, old)
	t.Name = new
	s.tables[new] = t
	for i, n := range s.order {
		if n == old {
			s.order[i] = new
			break
		}
	}
	return true
}

// writable returns a table of s that is safe to mutate, cloning it first
// (and swapping the clone into the schema) when the table is shared with
// another snapshot.
func (s *Schema) writable(t *Table) *Table {
	if !t.shared {
		return t
	}
	c := t.Clone()
	s.tables[t.Name] = c
	return c
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	c := New()
	for _, name := range s.order {
		if t, ok := s.tables[name]; ok {
			c.AddTable(t.Clone())
		}
	}
	return c
}

// Seal marks every table of the schema as shared, so any later mutation
// through the apply path clones the table instead of writing in place.
// Published snapshots (completed analyses, cache decodes) are sealed:
// consecutive versions of a history share table storage, and writing
// through one snapshot would silently corrupt its siblings.
func (s *Schema) Seal() {
	for _, t := range s.tables {
		t.shared = true
	}
}

// CloneCOW returns a snapshot that shares table storage with the
// receiver. Tables become copy-on-write in both schemas: the first
// mutation through either schema's apply path clones the affected table,
// so unchanged tables stay pointer-identical across versions (which the
// differ exploits). Use Clone for a fully independent deep copy.
//
// The snapshot has room for one more table, so the common next version,
// which adds a table, grows neither the map nor the order. (A nil order
// stays nil: reflect.DeepEqual, which the differential tests use, tells
// it from an empty one.) The map is filled from order: every table name
// is in order, so this visits each table (repeats of a rename collision
// only re-store it) without the cost of ranging over a map.
func (s *Schema) CloneCOW() *Schema {
	c := &Schema{tables: make(map[string]*Table, len(s.tables)+1)}
	if s.order != nil {
		c.order = append(make([]string, 0, len(s.order)+1), s.order...)
	}
	for _, name := range s.order {
		if t, ok := s.tables[name]; ok {
			t.shared = true
			c.tables[name] = t
		}
	}
	return c
}

// String renders a compact single-line summary, useful in test failures.
func (s *Schema) String() string {
	var sb strings.Builder
	for i, name := range s.TableNames() {
		if i > 0 {
			sb.WriteString("; ")
		}
		t := s.tables[name]
		fmt.Fprintf(&sb, "%s(%s)", name, strings.Join(t.ColumnNames(), ","))
	}
	return sb.String()
}

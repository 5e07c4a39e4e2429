package schema

import "strings"

// Equivalent reports whether two schemas are logically identical: same
// tables, columns (name, type, nullability, default, key participation),
// primary keys and foreign-key column sets. It is the equality notion
// under which Emit round-trips.
func Equivalent(a, b *Schema) bool {
	if a.TableCount() != b.TableCount() {
		return false
	}
	for _, ta := range a.Tables() {
		tb, ok := b.Table(ta.Name)
		if !ok || !tablesEquivalent(ta, tb) {
			return false
		}
	}
	return true
}

func tablesEquivalent(a, b *Table) bool {
	if len(a.Columns) != len(b.Columns) {
		return false
	}
	for i := range a.Columns {
		ca, cb := a.Columns[i], b.Columns[i]
		if ca.Name != cb.Name || ca.Type != cb.Type || ca.NotNull != cb.NotNull ||
			ca.HasDefault != cb.HasDefault || ca.InPK != cb.InPK {
			return false
		}
	}
	if !sameStrings(a.PrimaryKey, b.PrimaryKey) {
		return false
	}
	if len(a.ForeignKeys) != len(b.ForeignKeys) {
		return false
	}
	// Foreign keys compare as a multiset: declaration order differs
	// legitimately between full dumps and migration scripts.
	counts := map[string]int{}
	for _, fk := range a.ForeignKeys {
		counts[fkKey(fk)]++
	}
	for _, fk := range b.ForeignKeys {
		counts[fkKey(fk)]--
		if counts[fkKey(fk)] < 0 {
			return false
		}
	}
	return true
}

func fkKey(fk ForeignKey) string {
	return strings.Join(fk.Columns, ",") + "->" + fk.RefTable
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

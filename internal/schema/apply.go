package schema

import (
	"fmt"
	"strings"

	"schemaevo/internal/sqlddl"
)

// Note is a non-fatal observation made while applying a script: a
// reference to a missing table, a duplicate definition, and so on. Real
// schema histories are full of such wrinkles; the pipeline records them
// and carries on.
type Note struct {
	Stmt int
	Msg  string
}

func (n Note) String() string { return fmt.Sprintf("stmt %d: %s", n.Stmt, n.Msg) }

// FromScript builds a schema snapshot from a full DDL dump.
func FromScript(script *sqlddl.Script) (*Schema, []Note) {
	s := New()
	notes := s.Apply(script)
	return s, notes
}

// ParseAndBuild parses src and builds the schema it defines, folding
// parse errors into the returned notes.
func ParseAndBuild(src string) (*Schema, []Note) {
	script := sqlddl.Parse(src)
	s, notes := FromScript(script)
	for _, e := range script.Errors {
		notes = append(notes, Note{Stmt: e.Stmt, Msg: "parse: " + e.Msg})
	}
	return s, notes
}

// Apply evolves the schema by the statements of the script, in order.
// Unknown or physical-level statements are ignored. It returns notes for
// anomalies (missing targets, duplicates) rather than failing, because a
// later version of a real history must remain analyzable even when an
// intermediate migration references state the extractor never saw.
func (s *Schema) Apply(script *sqlddl.Script) []Note {
	var notes []Note
	for i, stmt := range script.Statements {
		notes = append(notes, s.applyStatement(i, stmt, nil)...)
	}
	return notes
}

// applyStatement applies one statement; types memoizes type normalization
// (nil normalizes every column afresh).
func (s *Schema) applyStatement(idx int, stmt sqlddl.Statement, types typeMemo) []Note {
	switch st := stmt.(type) {
	case *sqlddl.CreateTable:
		return s.applyCreateTable(idx, st, types)
	case *sqlddl.AlterTable:
		return s.applyAlterTable(idx, st, types)
	case *sqlddl.DropTable:
		var notes []Note
		for _, name := range st.Names {
			if !s.DropTable(name) && !st.IfExists {
				notes = append(notes, Note{idx, "DROP TABLE " + name + ": no such table"})
			}
		}
		return notes
	default:
		// CreateIndex, DropIndex, CreateView, RawStatement: physical or
		// non-schema statements; logical level unchanged.
		return nil
	}
}

func (s *Schema) applyCreateTable(idx int, ct *sqlddl.CreateTable, types typeMemo) []Note {
	var notes []Note
	if _, exists := s.Table(ct.Name); exists {
		if ct.IfNotExists {
			return nil
		}
		notes = append(notes, Note{idx, "CREATE TABLE " + ct.Name + ": replacing existing definition"})
	}
	t, msgs := buildCreateTable(ct, types)
	for _, m := range msgs {
		notes = append(notes, Note{idx, m})
	}
	s.AddTable(t)
	return notes
}

// buildCreateTable materializes the logical table a CREATE TABLE statement
// defines, plus the messages for per-column anomalies. The result depends
// only on the statement — not on schema state — which is what lets the
// incremental reconstructor cache tables per AST node.
func buildCreateTable(ct *sqlddl.CreateTable, types typeMemo) (*Table, []string) {
	t := &Table{Name: ct.Name}
	if len(ct.Columns) > 0 {
		t.Columns = make([]Column, 0, len(ct.Columns))
	}
	var msgs []string
	var pk []string
	for _, cd := range ct.Columns {
		// Real engines reject duplicate column names; tolerate the file by
		// keeping the first definition, so that name-based lookups (and the
		// differ) see one column per name.
		if _, exists := t.Column(cd.Name); exists {
			msgs = append(msgs, "CREATE TABLE "+ct.Name+": duplicate column "+cd.Name)
			continue
		}
		col := columnFromDef(cd, types)
		t.Columns = append(t.Columns, col)
		if cd.PrimaryKey {
			pk = append(pk, cd.Name)
		}
		if cd.Unique {
			t.Uniques = append(t.Uniques, []string{cd.Name})
		}
		if cd.References != nil {
			t.ForeignKeys = append(t.ForeignKeys, fkFromRef("", []string{cd.Name}, cd.References))
		}
	}
	for _, c := range ct.Constraints {
		switch c.Kind {
		case sqlddl.PrimaryKeyConstraint:
			pk = c.Columns
		case sqlddl.ForeignKeyConstraint:
			t.ForeignKeys = append(t.ForeignKeys, fkFromRef(c.Name, c.Columns, c.Ref))
		case sqlddl.UniqueConstraint:
			// Copy: the table's key lists are mutated on column renames, and
			// they must never alias the (cached, shared) AST.
			t.Uniques = append(t.Uniques, copySlice(c.Columns))
		}
	}
	if len(pk) > 0 {
		t.setPrimaryKey(pk)
	}
	return t, msgs
}

func columnFromDef(cd sqlddl.ColumnDef, types typeMemo) Column {
	return Column{
		Name:          cd.Name,
		Type:          types.normalize(cd.Type),
		NotNull:       cd.NotNull,
		Default:       cd.Default,
		HasDefault:    cd.HasDefault,
		AutoIncrement: cd.AutoIncrement,
		InPK:          cd.PrimaryKey,
	}
}

func fkFromRef(name string, cols []string, ref *sqlddl.FKRef) ForeignKey {
	fk := ForeignKey{
		Name:    name,
		Columns: append([]string(nil), cols...),
	}
	if ref != nil {
		fk.RefTable = ref.Table
		fk.RefColumns = append([]string(nil), ref.Columns...)
	}
	if fk.Name == "" {
		fk.Name = syntheticFKName(fk)
	}
	return fk
}

// syntheticFKName derives a stable name for anonymous foreign keys so
// they can be matched across versions.
func syntheticFKName(fk ForeignKey) string {
	n := len("fk_") + len(fk.RefTable) + 1
	for _, c := range fk.Columns {
		n += len(c) + 1
	}
	var sb strings.Builder
	sb.Grow(n)
	sb.WriteString("fk_")
	for i, c := range fk.Columns {
		if i > 0 {
			sb.WriteByte('_')
		}
		sb.WriteString(c)
	}
	sb.WriteByte('_')
	sb.WriteString(fk.RefTable)
	return sb.String()
}

func (s *Schema) applyAlterTable(idx int, at *sqlddl.AlterTable, types typeMemo) []Note {
	t, ok := s.Table(at.Name)
	if !ok {
		if at.IfExists {
			return nil
		}
		return []Note{{idx, "ALTER TABLE " + at.Name + ": no such table"}}
	}
	t = s.writable(t)
	var notes []Note
	for _, act := range at.Actions {
		notes = append(notes, s.applyAlteration(idx, t, act, types)...)
	}
	return notes
}

func (s *Schema) applyAlteration(idx int, t *Table, act sqlddl.Alteration, types typeMemo) []Note {
	switch act.Action {
	case sqlddl.AddColumn:
		if _, exists := t.Column(act.Column.Name); exists {
			return []Note{{idx, "ADD COLUMN " + t.Name + "." + act.Column.Name + ": already exists"}}
		}
		col := columnFromDef(act.Column, types)
		t.Columns = append(t.Columns, col)
		if act.Column.PrimaryKey {
			t.setPrimaryKey(append(append([]string(nil), t.PrimaryKey...), col.Name))
		}
		if act.Column.References != nil {
			t.ForeignKeys = append(t.ForeignKeys, fkFromRef("", []string{col.Name}, act.Column.References))
		}
	case sqlddl.DropColumn:
		if !dropColumn(t, act.Column.Name) {
			return []Note{{idx, "DROP COLUMN " + t.Name + "." + act.Column.Name + ": no such column"}}
		}
	case sqlddl.ModifyColumn:
		c, ok := t.Column(act.Column.Name)
		if !ok {
			return []Note{{idx, "MODIFY COLUMN " + t.Name + "." + act.Column.Name + ": no such column"}}
		}
		if act.Column.Type != "" {
			c.Type = types.normalize(act.Column.Type)
		}
		// MySQL MODIFY restates the full definition; adopt the flags.
		c.NotNull = act.Column.NotNull || c.InPK
		if act.Column.HasDefault {
			c.Default, c.HasDefault = act.Column.Default, true
		}
		if act.Column.AutoIncrement {
			c.AutoIncrement = true
		}
	case sqlddl.RenameColumn:
		c, ok := t.Column(act.OldName)
		if !ok {
			return []Note{{idx, "RENAME COLUMN " + t.Name + "." + act.OldName + ": no such column"}}
		}
		c.Name = act.Column.Name
		if act.Column.Type != "" { // CHANGE restates the type
			c.Type = types.normalize(act.Column.Type)
			c.NotNull = act.Column.NotNull || c.InPK
		}
		renameInKeys(t, act.OldName, act.Column.Name)
	case sqlddl.AddTableConstraint:
		applyAddConstraint(t, act.Constraint)
	case sqlddl.DropConstraint:
		applyDropConstraint(t, act)
	case sqlddl.RenameTable:
		s.renameTable(t.Name, act.NewTableName)
	case sqlddl.SetDefault:
		if c, ok := t.Column(act.Column.Name); ok {
			if act.Drop {
				c.Default, c.HasDefault = "", false
			} else {
				c.Default, c.HasDefault = act.Column.Default, true
			}
		}
	case sqlddl.SetNotNull:
		if c, ok := t.Column(act.Column.Name); ok {
			c.NotNull = !act.Drop
		}
	case sqlddl.OtherAlteration:
		// schema-neutral
	}
	return nil
}

func dropColumn(t *Table, name string) bool {
	for i := range t.Columns {
		if t.Columns[i].Name == name {
			t.Columns = append(t.Columns[:i], t.Columns[i+1:]...)
			removeFromKeys(t, name)
			return true
		}
	}
	return false
}

func applyAddConstraint(t *Table, c *sqlddl.TableConstraint) {
	if c == nil {
		return
	}
	switch c.Kind {
	case sqlddl.PrimaryKeyConstraint:
		t.setPrimaryKey(c.Columns)
	case sqlddl.ForeignKeyConstraint:
		t.ForeignKeys = append(t.ForeignKeys, fkFromRef(c.Name, c.Columns, c.Ref))
	case sqlddl.UniqueConstraint:
		// Copy: key lists are renamed in place and must not alias the AST.
		t.Uniques = append(t.Uniques, copySlice(c.Columns))
	}
}

func applyDropConstraint(t *Table, act sqlddl.Alteration) {
	switch act.ConstraintKind {
	case sqlddl.PrimaryKeyConstraint:
		t.setPrimaryKey(nil)
		t.PrimaryKey = nil
	default:
		// Foreign key (or generic constraint) dropped by name; a generic
		// DROP CONSTRAINT may also target a unique — try both.
		for i, fk := range t.ForeignKeys {
			if fk.Name == act.ConstraintName {
				t.ForeignKeys = append(t.ForeignKeys[:i], t.ForeignKeys[i+1:]...)
				return
			}
		}
	}
}

func renameInKeys(t *Table, old, new string) {
	replace := func(cols []string) {
		for i, c := range cols {
			if c == old {
				cols[i] = new
			}
		}
	}
	replace(t.PrimaryKey)
	for i := range t.ForeignKeys {
		replace(t.ForeignKeys[i].Columns)
	}
	for i := range t.Uniques {
		replace(t.Uniques[i])
	}
}

func removeFromKeys(t *Table, name string) {
	remove := func(cols []string) []string {
		out := cols[:0]
		for _, c := range cols {
			if c != name {
				out = append(out, c)
			}
		}
		return out
	}
	t.PrimaryKey = remove(t.PrimaryKey)
	kept := t.ForeignKeys[:0]
	for _, fk := range t.ForeignKeys {
		fk.Columns = remove(fk.Columns)
		if len(fk.Columns) > 0 {
			kept = append(kept, fk)
		}
	}
	t.ForeignKeys = kept
}

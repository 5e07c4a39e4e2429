package sqlddl

import (
	"fmt"
	"strings"
)

// Render prints a statement back as SQL for the lexer profile prof. The
// output is normalized (upper-case keywords, lower-case unquoted
// identifiers, one clause per construct) and re-parses under prof to an
// equal statement: it is the oracle of the round-trip tests and fuzzers.
// String literals are spelled for prof, with backslashes doubled where
// prof reads a backslash as an escape. RawStatement renders as its
// original text.
func Render(stmt Statement, prof LexProfile) string {
	r := renderer{prof}
	switch st := stmt.(type) {
	case *CreateTable:
		return r.createTable(st)
	case *AlterTable:
		return r.alterTable(st)
	case *DropTable:
		return renderDropTable(st)
	case *CreateIndex:
		return renderCreateIndex(st)
	case *DropIndex:
		return renderDropIndex(st)
	case *CreateView:
		return "CREATE VIEW " + renderIdent(st.Name) + " AS SELECT 1"
	case *RawStatement:
		return st.Text
	}
	return ""
}

// RenderScript prints every statement of a script, semicolon-terminated.
func RenderScript(s *Script, prof LexProfile) string {
	var sb strings.Builder
	for _, stmt := range s.Statements {
		sb.WriteString(Render(stmt, prof))
		sb.WriteString(";\n")
	}
	return sb.String()
}

// renderer spells literals for one lexer profile.
type renderer struct{ prof LexProfile }

// quote spells v as a string literal that the profile reads back as v.
func (r renderer) quote(v string) string {
	if !r.prof.NoBackslashEscape {
		v = strings.ReplaceAll(v, `\`, `\\`)
	}
	return string(appendQuoted(nil, v, '\''))
}

// expr respells the string literals of an expression the parser kept as
// text (a default or a CHECK body), which are in standard SQL quoting,
// for the profile.
func (r renderer) expr(e string) string {
	if r.prof.NoBackslashEscape || !strings.Contains(e, `\`) {
		return e
	}
	var sb strings.Builder
	lx := NewLexerProfile(e, LexProfile{NoBackslashEscape: true})
	last := 0
	for {
		k, start, end := lx.Scan()
		if k == EOF {
			break
		}
		if k == String && end-start >= 2 && e[end-1] == '\'' {
			sb.WriteString(e[last:start])
			sb.WriteString(r.quote(strings.ReplaceAll(e[start+1:end-1], "''", "'")))
			last = end
		}
	}
	sb.WriteString(e[last:])
	return sb.String()
}

// constraintLeaders are the contextual keywords that can open a
// table-level constraint inside CREATE TABLE. A column or table named
// after one of them must render quoted, or the re-parse would take the
// constraint branch (e.g. an unquoted column "key" reads as a MySQL
// secondary-index definition).
var constraintLeaders = map[string]bool{
	"constraint": true, "primary": true, "foreign": true, "unique": true,
	"key": true, "index": true, "check": true, "exclude": true,
}

// renderIdent quotes identifiers that are not plain lower-case names (so
// the parser's normalization — lower-casing unquoted names — is a no-op
// on re-parse) and names that collide with constraint keywords.
func renderIdent(name string) string {
	if constraintLeaders[name] {
		return `"` + name + `"`
	}
	plain := name != ""
	for i := 0; i < len(name) && plain; i++ {
		c := name[i]
		switch {
		case c == '_' || ('a' <= c && c <= 'z'):
		case '0' <= c && c <= '9':
			plain = i > 0
		default:
			plain = false
		}
	}
	if plain {
		return name
	}
	return `"` + strings.ReplaceAll(name, `"`, `""`) + `"`
}

func renderIdentList(names []string) string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = renderIdent(n)
	}
	return strings.Join(out, ", ")
}

func (r renderer) columnDef(c ColumnDef) string {
	var sb strings.Builder
	sb.WriteString(renderIdent(c.Name))
	if c.Type != "" {
		sb.WriteByte(' ')
		sb.WriteString(renderType(c.Type))
	}
	if c.NotNull && !c.PrimaryKey {
		sb.WriteString(" NOT NULL")
	}
	if c.HasDefault {
		sb.WriteString(" DEFAULT ")
		if c.Default == "" {
			sb.WriteString("NULL")
		} else {
			sb.WriteString(r.expr(c.Default))
		}
	}
	if c.PrimaryKey {
		sb.WriteString(" PRIMARY KEY")
	}
	if c.Unique {
		sb.WriteString(" UNIQUE")
	}
	if c.AutoIncrement && !isSerialType(c.Type) {
		sb.WriteString(" AUTO_INCREMENT")
	}
	if c.References != nil {
		sb.WriteString(" REFERENCES ")
		sb.WriteString(renderFKRef(c.References))
	}
	if c.Comment != "" {
		sb.WriteString(" COMMENT " + r.quote(c.Comment))
	}
	return sb.String()
}

func renderFKRef(ref *FKRef) string {
	var sb strings.Builder
	sb.WriteString(renderIdent(ref.Table))
	if len(ref.Columns) > 0 {
		fmt.Fprintf(&sb, " (%s)", renderIdentList(ref.Columns))
	}
	if ref.OnDelete != "" {
		sb.WriteString(" ON DELETE " + ref.OnDelete)
	}
	if ref.OnUpdate != "" {
		sb.WriteString(" ON UPDATE " + ref.OnUpdate)
	}
	return sb.String()
}

func (r renderer) tableConstraint(c TableConstraint) string {
	var sb strings.Builder
	if c.Name != "" && c.Kind != IndexConstraint {
		sb.WriteString("CONSTRAINT " + renderIdent(c.Name) + " ")
	}
	switch c.Kind {
	case PrimaryKeyConstraint:
		fmt.Fprintf(&sb, "PRIMARY KEY (%s)", renderIdentList(c.Columns))
	case ForeignKeyConstraint:
		fmt.Fprintf(&sb, "FOREIGN KEY (%s) REFERENCES %s", renderIdentList(c.Columns), renderFKRef(c.Ref))
	case UniqueConstraint:
		fmt.Fprintf(&sb, "UNIQUE (%s)", renderIdentList(c.Columns))
	case CheckConstraint:
		fmt.Fprintf(&sb, "CHECK %s", r.expr(c.Expr))
	case IndexConstraint:
		sb.WriteString("INDEX")
		if c.Name != "" {
			sb.WriteString(" " + renderIdent(c.Name))
		}
		fmt.Fprintf(&sb, " (%s)", renderIdentList(c.Columns))
	}
	return sb.String()
}

func (r renderer) createTable(ct *CreateTable) string {
	var sb strings.Builder
	sb.WriteString("CREATE ")
	if ct.Temporary {
		sb.WriteString("TEMPORARY ")
	}
	sb.WriteString("TABLE ")
	if ct.IfNotExists {
		sb.WriteString("IF NOT EXISTS ")
	}
	sb.WriteString(renderIdent(ct.Name))
	if len(ct.Columns) == 0 && len(ct.Constraints) == 0 {
		return sb.String()
	}
	sb.WriteString(" (\n")
	first := true
	for _, c := range ct.Columns {
		if !first {
			sb.WriteString(",\n")
		}
		first = false
		sb.WriteString("  " + r.columnDef(c))
	}
	for _, c := range ct.Constraints {
		if !first {
			sb.WriteString(",\n")
		}
		first = false
		sb.WriteString("  " + r.tableConstraint(c))
	}
	sb.WriteString("\n)")
	return sb.String()
}

func (r renderer) alterTable(at *AlterTable) string {
	var sb strings.Builder
	sb.WriteString("ALTER TABLE ")
	if at.IfExists {
		sb.WriteString("IF EXISTS ")
	}
	sb.WriteString(renderIdent(at.Name))
	for i, act := range at.Actions {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(" " + r.alteration(act))
	}
	return sb.String()
}

func (r renderer) alteration(a Alteration) string {
	switch a.Action {
	case AddColumn:
		return "ADD COLUMN " + r.columnDef(a.Column)
	case DropColumn:
		return "DROP COLUMN " + renderIdent(a.Column.Name)
	case ModifyColumn:
		return "MODIFY COLUMN " + r.columnDef(a.Column)
	case RenameColumn:
		if a.Column.Type != "" {
			// MySQL CHANGE form retains the full definition.
			return "CHANGE COLUMN " + renderIdent(a.OldName) + " " + r.columnDef(a.Column)
		}
		return "RENAME COLUMN " + renderIdent(a.OldName) + " TO " + renderIdent(a.Column.Name)
	case AddTableConstraint:
		if a.Constraint == nil {
			return ""
		}
		return "ADD " + r.tableConstraint(*a.Constraint)
	case DropConstraint:
		switch a.ConstraintKind {
		case PrimaryKeyConstraint:
			return "DROP PRIMARY KEY"
		case IndexConstraint:
			return "DROP INDEX " + renderIdent(a.ConstraintName)
		default:
			return "DROP CONSTRAINT " + renderIdent(a.ConstraintName)
		}
	case RenameTable:
		return "RENAME TO " + renderIdent(a.NewTableName)
	case SetDefault:
		if a.Drop {
			return "ALTER COLUMN " + renderIdent(a.Column.Name) + " DROP DEFAULT"
		}
		return "ALTER COLUMN " + renderIdent(a.Column.Name) + " SET DEFAULT " + r.expr(a.Column.Default)
	case SetNotNull:
		if a.Drop {
			return "ALTER COLUMN " + renderIdent(a.Column.Name) + " DROP NOT NULL"
		}
		return "ALTER COLUMN " + renderIdent(a.Column.Name) + " SET NOT NULL"
	case OtherAlteration:
		return "ENGINE = unchanged"
	}
	return ""
}

func renderDropTable(dt *DropTable) string {
	var sb strings.Builder
	sb.WriteString("DROP TABLE ")
	if dt.IfExists {
		sb.WriteString("IF EXISTS ")
	}
	sb.WriteString(renderIdentList(dt.Names))
	if dt.Cascade {
		sb.WriteString(" CASCADE")
	}
	return sb.String()
}

func renderCreateIndex(ci *CreateIndex) string {
	var sb strings.Builder
	sb.WriteString("CREATE ")
	if ci.Unique {
		sb.WriteString("UNIQUE ")
	}
	sb.WriteString("INDEX ")
	if ci.Name != "" {
		sb.WriteString(renderIdent(ci.Name) + " ")
	}
	sb.WriteString("ON " + renderIdent(ci.Table))
	if len(ci.Columns) > 0 {
		fmt.Fprintf(&sb, " (%s)", renderIdentList(ci.Columns))
	}
	return sb.String()
}

func renderDropIndex(di *DropIndex) string {
	out := "DROP INDEX " + renderIdent(di.Name)
	if di.Table != "" {
		out += " ON " + renderIdent(di.Table)
	}
	return out
}

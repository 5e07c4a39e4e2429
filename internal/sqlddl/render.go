package sqlddl

import (
	"fmt"
	"strings"
)

// Render prints a statement back as SQL. The output is normalized
// (upper-case keywords, lower-case unquoted identifiers, one clause per
// construct) and re-parses to an equal statement; see the round-trip
// tests. RawStatement renders as its original text.
func Render(stmt Statement) string {
	switch st := stmt.(type) {
	case *CreateTable:
		return renderCreateTable(st)
	case *AlterTable:
		return renderAlterTable(st)
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
func RenderScript(s *Script) string {
	var sb strings.Builder
	for _, stmt := range s.Statements {
		sb.WriteString(Render(stmt))
		sb.WriteString(";\n")
	}
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

// renderType prints a data type; exotic type names that would not lex
// back as a type (quoted custom types, odd characters) are re-quoted.
func renderType(typ string) string {
	if plainType(typ) {
		return typ
	}
	return `"` + strings.ReplaceAll(typ, `"`, `""`) + `"`
}

// plainType reports whether a type string matches the shape the type
// grammar re-parses unquoted: an identifier word, optional suffix words
// (keywords whose isTypeSuffix holds), at most one parenthesized
// argument group, and an optional final "array". Anything else
// (digit-led words, stray words, unbalanced quotes, comment-capable
// characters) must be rendered quoted or it would not survive a parse
// round trip — fuzzing found multi-word "types" built from quoted
// identifiers that rendered bare and then failed to re-parse.
func plainType(typ string) bool {
	i, n := 0, len(typ)
	isWordStart := func(c byte) bool {
		return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
	}
	readWord := func() (string, bool) {
		if i >= n || !isWordStart(typ[i]) {
			return "", false
		}
		start := i
		for i < n {
			c := typ[i]
			if isWordStart(c) || ('0' <= c && c <= '9') {
				i++
				continue
			}
			break
		}
		return typ[start:i], true
	}
	if _, ok := readWord(); !ok {
		return false
	}
	seenParen, seenArray := false, false
	for i < n {
		switch typ[i] {
		case '(':
			if seenParen || seenArray {
				return false
			}
			seenParen = true
			depth := 0
			closed := false
			for i < n && !closed {
				switch c := typ[i]; {
				case c == '\'': // skip a simple string literal
					i++
					for i < n && typ[i] != '\'' {
						i++
					}
					if i >= n {
						return false
					}
				case c == '(':
					depth++
				case c == ')':
					depth--
					closed = depth == 0
				case isWordStart(c), '0' <= c && c <= '9', c == ' ', c == ',', c == '.':
				default:
					return false
				}
				i++
			}
			if !closed {
				return false
			}
		case ' ':
			i++
			w, ok := readWord()
			if !ok || seenArray {
				return false
			}
			switch lw := strings.ToLower(w); {
			case lw == "array":
				seenArray = true
			case lookupKeyword(lw).isTypeSuffix():
			default:
				return false
			}
		default:
			return false
		}
	}
	return true
}

func renderColumnDef(c ColumnDef) string {
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
			sb.WriteString(c.Default)
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
		sb.WriteString(" COMMENT " + QuoteString(c.Comment))
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

func renderTableConstraint(c TableConstraint) string {
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
		fmt.Fprintf(&sb, "CHECK %s", c.Expr)
	case IndexConstraint:
		sb.WriteString("INDEX")
		if c.Name != "" {
			sb.WriteString(" " + renderIdent(c.Name))
		}
		fmt.Fprintf(&sb, " (%s)", renderIdentList(c.Columns))
	}
	return sb.String()
}

func renderCreateTable(ct *CreateTable) string {
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
		sb.WriteString("  " + renderColumnDef(c))
	}
	for _, c := range ct.Constraints {
		if !first {
			sb.WriteString(",\n")
		}
		first = false
		sb.WriteString("  " + renderTableConstraint(c))
	}
	sb.WriteString("\n)")
	return sb.String()
}

func renderAlterTable(at *AlterTable) string {
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
		sb.WriteString(" " + renderAlteration(act))
	}
	return sb.String()
}

func renderAlteration(a Alteration) string {
	switch a.Action {
	case AddColumn:
		return "ADD COLUMN " + renderColumnDef(a.Column)
	case DropColumn:
		return "DROP COLUMN " + renderIdent(a.Column.Name)
	case ModifyColumn:
		return "MODIFY COLUMN " + renderColumnDef(a.Column)
	case RenameColumn:
		if a.Column.Type != "" {
			// MySQL CHANGE form retains the full definition.
			return "CHANGE COLUMN " + renderIdent(a.OldName) + " " + renderColumnDef(a.Column)
		}
		return "RENAME COLUMN " + renderIdent(a.OldName) + " TO " + renderIdent(a.Column.Name)
	case AddTableConstraint:
		if a.Constraint == nil {
			return ""
		}
		return "ADD " + renderTableConstraint(*a.Constraint)
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
		return "ALTER COLUMN " + renderIdent(a.Column.Name) + " SET DEFAULT " + a.Column.Default
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

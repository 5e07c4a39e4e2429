package schema

import (
	"strings"
)

// Emit renders the schema as a SQL DDL script that, parsed and applied to
// an empty schema, reconstructs an equivalent logical schema (see the
// round-trip property tests). Tables appear in insertion order; names are
// quoted only when necessary. It is a test oracle, and the format of the
// neutral-corpus differential goldens.
func (s *Schema) Emit() string {
	var sb strings.Builder
	// Rough per-attribute footprint of the rendered script; avoids the
	// builder's doubling churn on large schemas.
	sb.Grow(64*s.TableCount() + 48*s.AttributeCount())
	for i, t := range s.Tables() {
		if i > 0 {
			sb.WriteByte('\n')
		}
		emitTable(&sb, t)
	}
	return sb.String()
}

func emitTable(sb *strings.Builder, t *Table) {
	sb.WriteString("CREATE TABLE ")
	writeQuotedIdent(sb, t.Name)
	sb.WriteString(" (\n")
	for i, c := range t.Columns {
		if i > 0 {
			sb.WriteString(",\n")
		}
		sb.WriteString("  ")
		writeQuotedIdent(sb, c.Name)
		if c.Type != "" {
			sb.WriteByte(' ')
			sb.WriteString(c.Type)
		}
		if c.NotNull && !c.InPK {
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
		if c.AutoIncrement {
			sb.WriteString(" AUTO_INCREMENT")
		}
	}
	if len(t.PrimaryKey) > 0 {
		sb.WriteString(",\n  PRIMARY KEY (")
		writeQuotedList(sb, t.PrimaryKey)
		sb.WriteByte(')')
	}
	for _, u := range t.Uniques {
		sb.WriteString(",\n  UNIQUE (")
		writeQuotedList(sb, u)
		sb.WriteByte(')')
	}
	for _, fk := range t.ForeignKeys {
		sb.WriteString(",\n  ")
		if fk.Name != "" && !strings.HasPrefix(fk.Name, "fk_") {
			sb.WriteString("CONSTRAINT ")
			writeQuotedIdent(sb, fk.Name)
			sb.WriteByte(' ')
		}
		sb.WriteString("FOREIGN KEY (")
		writeQuotedList(sb, fk.Columns)
		sb.WriteString(") REFERENCES ")
		writeQuotedIdent(sb, fk.RefTable)
		if len(fk.RefColumns) > 0 {
			sb.WriteString(" (")
			writeQuotedList(sb, fk.RefColumns)
			sb.WriteByte(')')
		}
	}
	sb.WriteString("\n);\n")
}

// writeQuotedList writes a comma-separated identifier list straight into
// the builder, quoting each name only as needed.
func writeQuotedList(sb *strings.Builder, names []string) {
	for i, n := range names {
		if i > 0 {
			sb.WriteString(", ")
		}
		writeQuotedIdent(sb, n)
	}
}

// writeQuotedIdent writes an identifier into the builder, wrapping it in
// double quotes when it is not a plain lower-case SQL name (the form the
// parser normalizes unquoted names to).
func writeQuotedIdent(sb *strings.Builder, name string) {
	if plainIdent(name) {
		sb.WriteString(name)
		return
	}
	sb.WriteByte('"')
	for i := 0; i < len(name); i++ {
		if name[i] == '"' {
			sb.WriteString(`""`)
		} else {
			sb.WriteByte(name[i])
		}
	}
	sb.WriteByte('"')
}

func plainIdent(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c == '_', 'a' <= c && c <= 'z':
		case '0' <= c && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	// Words that would lex as keywords in column position must be quoted.
	switch name {
	case "primary", "unique", "constraint", "foreign", "check", "key", "index",
		"not", "null", "default", "references", "create", "table", "drop", "alter":
		return false
	}
	return true
}

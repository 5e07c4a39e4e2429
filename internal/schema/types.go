package schema

import "strings"

// typeAliases maps dialect-specific base type names to a canonical family
// name, so that diffing does not report a "change" when a project merely
// re-dumps the same schema through a different tool (int vs integer,
// bool vs boolean, ...). Genuinely different types (tinyint vs bigint,
// text vs varchar) stay distinct.
var typeAliases = map[string]string{
	"integer": "int", "int4": "int", "mediumint": "int",
	"int8":   "bigint",
	"int2":   "smallint",
	"serial": "int", "serial4": "int",
	"bigserial": "bigint", "serial8": "bigint",
	"smallserial": "smallint", "serial2": "smallint",
	"boolean":           "bool",
	"character varying": "varchar", "char varying": "varchar",
	"character":        "char",
	"double precision": "double", "float8": "double",
	"float4":  "real",
	"decimal": "numeric", "dec": "numeric",
	"datetime":               "timestamp",
	"timestamptz":            "timestamp with time zone",
	"character large object": "text", "clob": "text",
	"binary large object": "blob",
}

// NormalizeType canonicalizes a raw SQL data type: lower-cases it, maps
// dialect synonyms onto one family name, and preserves precision/length
// arguments and the unsigned/zerofill/array modifiers.
//
//	NormalizeType("INTEGER")            == "int"
//	NormalizeType("charactervarying(30)") is not accepted; input comes
//	from sqlddl which spaces multi-word types: "character varying(30)"
//	→ "varchar(30)".
func NormalizeType(raw string) string {
	raw = strings.ToLower(strings.TrimSpace(raw))
	if raw == "" {
		return ""
	}
	base, args, suffix := splitType(raw)
	if canon, ok := typeAliases[base]; ok {
		base = canon
	}
	var sb strings.Builder
	sb.WriteString(base)
	if args != "" {
		sb.WriteString("(")
		sb.WriteString(args)
		sb.WriteString(")")
	}
	if suffix != "" {
		sb.WriteString(" ")
		sb.WriteString(suffix)
	}
	return sb.String()
}

// typeMemo memoizes NormalizeType for one Reconstructor. Its keys are the
// parser's interned type spellings, owned copies that never alias source
// text, so it stays valid across projects; like the parse session's
// intern table it is dropped once it passes sqlddl.MaxInterned entries.
// A nil typeMemo normalizes every call afresh.
type typeMemo map[string]string

func (m typeMemo) normalize(raw string) string {
	if m == nil {
		return NormalizeType(raw)
	}
	if v, ok := m[raw]; ok {
		return v
	}
	v := NormalizeType(raw)
	m[raw] = v
	return v
}

// splitType splits "base(args) suffix" where base may be multi-word
// ("character varying") and suffix holds trailing modifiers such as
// "unsigned", "zerofill" or "array".
func splitType(raw string) (base, args, suffix string) {
	open := strings.IndexByte(raw, '(')
	if open < 0 {
		return splitSuffix(raw)
	}
	close := strings.IndexByte(raw[open:], ')')
	if close < 0 {
		return splitSuffix(raw)
	}
	close += open
	base = strings.TrimSpace(raw[:open])
	args = strings.ReplaceAll(strings.TrimSpace(raw[open+1:close]), " ", "")
	suffix = strings.TrimSpace(raw[close+1:])
	return base, args, suffix
}

// splitSuffix separates trailing modifiers from an unparenthesized type.
func splitSuffix(raw string) (base, args, suffix string) {
	words := strings.Fields(raw)
	var suffixes []string
	for len(words) > 1 {
		last := words[len(words)-1]
		if last == "unsigned" || last == "zerofill" || last == "signed" || last == "array" {
			suffixes = append([]string{last}, suffixes...)
			words = words[:len(words)-1]
			continue
		}
		break
	}
	return strings.Join(words, " "), "", strings.Join(suffixes, " ")
}

// TypeFamily returns the canonical base name of a type, without arguments
// or modifiers: TypeFamily("varchar(255)") == "varchar". It is the
// coarsest comparison level; diff uses full NormalizeType equality and
// exposes the family for reporting.
func TypeFamily(raw string) string {
	base, _, _ := splitType(strings.ToLower(strings.TrimSpace(raw)))
	if canon, ok := typeAliases[base]; ok {
		return canon
	}
	return base
}

package sqlddl

import "strings"

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

package sqlddl

import "fmt"

// Kind identifies the lexical class of a token.
type Kind uint8

// Token kinds produced by the lexer.
const (
	// EOF marks the end of the input.
	EOF Kind = iota
	// Ident is an unquoted identifier or keyword. Keywords are not a
	// separate kind: the lexer gives an identifier that spells one of the
	// parser's keywords, in any ASCII case, that keyword's code.
	Ident
	// QuotedIdent is an identifier quoted with double quotes, backquotes
	// or square brackets. Its Text carries the unquoted value.
	QuotedIdent
	// Number is an integer or decimal literal.
	Number
	// String is a single-quoted SQL string literal. Its Text carries the
	// unescaped value.
	String
	// LParen and RParen are the parenthesis tokens.
	LParen
	RParen
	// Comma, Semi and Dot are the corresponding punctuation tokens.
	Comma
	Semi
	Dot
	// Op is any other operator or punctuation character sequence
	// (=, <, >, <=, >=, <>, !=, +, -, *, /, %, ::, etc.).
	Op
	// Comment is a comment, as Lexer.Scan reports it; Next skips
	// comments and never returns this kind.
	Comment
)

func (k Kind) String() string {
	switch k {
	case EOF:
		return "EOF"
	case Ident:
		return "Ident"
	case QuotedIdent:
		return "QuotedIdent"
	case Number:
		return "Number"
	case String:
		return "String"
	case LParen:
		return "LParen"
	case RParen:
		return "RParen"
	case Comma:
		return "Comma"
	case Semi:
		return "Semi"
	case Dot:
		return "Dot"
	case Op:
		return "Op"
	case Comment:
		return "Comment"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Token is a single lexical unit of a DDL script. It carries its byte
// offset only: line and column are worked out from the offset when a
// ParseError is built, so the lexer never counts newlines.
type Token struct {
	Kind Kind
	// kw is the keyword code of an unquoted identifier that spells one of
	// the parser's keywords (kwNone for every other token). The parser
	// matches keywords by comparing codes.
	kw keyword
	// Text is the token payload: the identifier (unquoted), the literal
	// value, or the operator characters.
	Text string
	// Off is the byte offset of the token's first byte in the lexed
	// source (for EOF, the offset where the input ended).
	Off int
}

// IsIdent reports whether the token is a (possibly quoted) identifier.
func (t Token) IsIdent() bool { return t.Kind == Ident || t.Kind == QuotedIdent }

// Match reports whether the token is an unquoted identifier equal to the
// given keyword, compared case-insensitively. Quoted identifiers never
// match keywords. The parser itself compares keyword codes; Match serves
// callers that name words the parser does not.
func (t Token) Match(keyword string) bool {
	return t.Kind == Ident && equalFold(t.Text, keyword)
}

// equalFold is an ASCII-only case-insensitive comparison. SQL keywords are
// ASCII, so the full Unicode folding of strings.EqualFold is unnecessary
// (and would let non-ASCII look-alikes such as the Kelvin sign match).
func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

func (t Token) String() string {
	return fmt.Sprintf("%s(%q)@%d", t.Kind, t.Text, t.Off)
}

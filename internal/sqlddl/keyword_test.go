package sqlddl

import (
	"strings"
	"testing"
)

// TestKeywordCodesAnyCase: every keyword the parser names gets its own
// code through the lexer, in every ASCII case spelling (all of them up to
// ten letters, a sample beyond), and no other word or token does.
func TestKeywordCodesAnyCase(t *testing.T) {
	seen := map[string]keyword{}
	for kw := kwNone + 1; kw < numKeywords; kw++ {
		text := keywordText[kw]
		if text == "" || text != strings.ToLower(text) {
			t.Fatalf("keyword %d has spelling %q", kw, text)
		}
		if prev, dup := seen[text]; dup {
			t.Fatalf("%q spelled by codes %d and %d", text, prev, kw)
		}
		seen[text] = kw
		for _, v := range caseVariants(text) {
			toks := Tokenize(v)
			if toks[0].Kind != Ident || toks[0].kw != kw {
				t.Fatalf("%q lexes to %v with code %d, want code %d", v, toks[0], toks[0].kw, kw)
			}
		}
	}
	// A word that extends or truncates a keyword is no keyword.
	for text := range seen {
		for _, w := range []string{text + "s", "x" + text, text[:len(text)-1], text + "_"} {
			if _, ok := seen[w]; !ok && lookupKeyword(w) != kwNone {
				t.Errorf("%q got code %d", w, lookupKeyword(w))
			}
		}
	}
}

// caseVariants returns every ASCII case spelling of a short word, and the
// lower, upper, title and two alternating spellings of a long one.
func caseVariants(w string) []string {
	if len(w) > 10 {
		alt := func(odd int) string {
			b := []byte(w)
			for i := range b {
				if i%2 == odd {
					b[i] = strings.ToUpper(string(b[i]))[0]
				}
			}
			return string(b)
		}
		return []string{w, strings.ToUpper(w), strings.ToUpper(w[:1]) + w[1:], alt(0), alt(1)}
	}
	var out []string
	for mask := 0; mask < 1<<len(w); mask++ {
		b := []byte(w)
		for i := range b {
			if mask&(1<<i) != 0 {
				b[i] = strings.ToUpper(string(b[i]))[0]
			}
		}
		out = append(out, string(b))
	}
	return out
}

// TestKeywordCodesOnlyUnquotedASCII: quoted identifiers, literals and
// non-ASCII look-alikes that Unicode case folding would equate with a
// keyword never get a code.
func TestKeywordCodesOnlyUnquotedASCII(t *testing.T) {
	for _, src := range []string{`"key"`, "`KEY`", "[key]", `'key'`, "$$key$$", "E'key'"} {
		for _, prof := range []LexProfile{{}, {Dollar: true, EscapeStrings: true}} {
			if tok := NewLexerProfile(src, prof).Next(); tok.kw != kwNone {
				t.Errorf("%s under %+v: %v got code %d", src, prof, tok, tok.kw)
			}
		}
	}
	// U+212A KELVIN SIGN folds to k, U+017F LATIN SMALL LETTER LONG S to
	// s, and U+0130 LATIN CAPITAL LETTER I WITH DOT ABOVE lower-cases to
	// an i with a combining dot; fullwidth KEY only looks alike.
	for _, w := range []string{"\u212aey", "\u017fet", "\u0130ndex", "\uff2b\uff25\uff39", "uni\u212aue"} {
		tok := Tokenize(w)[0]
		if tok.Kind != Ident || tok.kw != kwNone {
			t.Errorf("%q lexes to %v with code %d, want an identifier without one", w, tok, tok.kw)
		}
	}
	if !strings.EqualFold("\u212aey", "key") {
		t.Fatal("the look-alike no longer folds to the keyword; pick another")
	}
}

// TestKeywordProbesShort bounds the linear-probe run any keyword needs,
// so a poor hash cannot silently turn lookups into scans.
func TestKeywordProbesShort(t *testing.T) {
	for kw := kwNone + 1; kw < numKeywords; kw++ {
		probes := 1
		for i := kwHash(keywordText[kw]); kwSlot[i] != kw; i = (i + 1) & (kwSlots - 1) {
			probes++
		}
		if probes > 3 {
			t.Errorf("%q needs %d probes", keywordText[kw], probes)
		}
	}
}

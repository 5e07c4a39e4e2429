package sqlddl

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestTokenizeBasic(t *testing.T) {
	toks := Tokenize("CREATE TABLE t (id INT);")
	want := []Kind{Ident, Ident, Ident, LParen, Ident, Ident, RParen, Semi, EOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(got), toks, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v want %v (%v)", i, got[i], want[i], toks[i])
		}
	}
}

func TestTokenizeComments(t *testing.T) {
	src := `-- line comment
# mysql comment
/* block
   comment */ SELECT 1`
	toks := Tokenize(src)
	if len(toks) != 3 || !toks[0].Match("select") || toks[1].Kind != Number {
		t.Fatalf("comments not skipped: %v", toks)
	}
}

func TestTokenizeStringEscapes(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{`'plain'`, "plain"},
		{`'it''s'`, "it's"},
		{`'it\'s'`, "it's"},
		{`'back\\slash'`, `back\slash`},
		{`''`, ""},
	}
	for _, c := range cases {
		toks := Tokenize(c.src)
		if toks[0].Kind != String || toks[0].Text != c.want {
			t.Errorf("Tokenize(%s) = %v, want String(%q)", c.src, toks[0], c.want)
		}
	}
}

func TestTokenizeQuotedIdents(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"`my table`", "my table"},
		{`"CaseSensitive"`, "CaseSensitive"},
		{`[bracketed]`, "bracketed"},
		{"`a``b`", "a`b"},
		{`"a""b"`, `a"b`},
	}
	for _, c := range cases {
		toks := Tokenize(c.src)
		if toks[0].Kind != QuotedIdent || toks[0].Text != c.want {
			t.Errorf("Tokenize(%s) = %v, want QuotedIdent(%q)", c.src, toks[0], c.want)
		}
	}
}

func TestTokenizeNumbers(t *testing.T) {
	cases := []string{"0", "42", "3.14", ".5", "1e10", "2.5E-3"}
	for _, c := range cases {
		toks := Tokenize(c)
		if toks[0].Kind != Number || toks[0].Text != c {
			t.Errorf("Tokenize(%q) = %v, want Number(%q)", c, toks[0], c)
		}
		if len(toks) != 2 {
			t.Errorf("Tokenize(%q): trailing tokens %v", c, toks[1:])
		}
	}
}

func TestTokenizeOperators(t *testing.T) {
	cases := map[string]string{
		"<=": "<=", ">=": ">=", "<>": "<>", "!=": "!=", "::": "::", "||": "||",
		"=": "=", "<": "<", "*": "*",
	}
	for src, want := range cases {
		toks := Tokenize(src)
		if toks[0].Kind != Op || toks[0].Text != want {
			t.Errorf("Tokenize(%q) = %v, want Op(%q)", src, toks[0], want)
		}
	}
}

func TestTokenizePositions(t *testing.T) {
	src := "a\n  bb -- c\n"
	toks := Tokenize(src)
	for i, want := range []int{0, 4, len(src)} {
		if toks[i].Off != want {
			t.Errorf("token %v at offset %d, want %d", toks[i], toks[i].Off, want)
		}
	}
	// Line and column are worked out from the offset only for errors.
	lines := startOfScript
	if line, col := lines.at(src, toks[1].Off); line != 2 || col != 3 {
		t.Errorf("token bb at %d:%d, want 2:3", line, col)
	}
}

func TestTokenizeUnterminatedString(t *testing.T) {
	toks := Tokenize("'never ends")
	if toks[0].Kind != String || toks[0].Text != "never ends" {
		t.Fatalf("unterminated string: %v", toks)
	}
	if toks[1].Kind != EOF {
		t.Fatalf("expected EOF after unterminated string, got %v", toks[1])
	}
}

func TestSplitStatements(t *testing.T) {
	src := `CREATE TABLE a (x INT); -- trailing
	INSERT INTO a VALUES ('semi ; inside string');
	CREATE TABLE b (y INT)`
	stmts := SplitStatements(src)
	if len(stmts) != 3 {
		t.Fatalf("got %d statements, want 3: %q", len(stmts), stmts)
	}
	if !strings.HasPrefix(stmts[0], "CREATE TABLE a") {
		t.Errorf("stmt 0 = %q", stmts[0])
	}
	if !strings.Contains(stmts[1], "semi ; inside") {
		t.Errorf("stmt 1 lost string content: %q", stmts[1])
	}
	if !strings.HasPrefix(stmts[2], "CREATE TABLE b") {
		t.Errorf("stmt 2 = %q", stmts[2])
	}
}

func TestSplitStatementsEmptyAndSeparators(t *testing.T) {
	if got := SplitStatements(";;;  ;"); len(got) != 0 {
		t.Errorf("empty script produced %q", got)
	}
	if got := SplitStatements("  \n\t"); len(got) != 0 {
		t.Errorf("whitespace produced %q", got)
	}
}

func TestMatchIsCaseInsensitive(t *testing.T) {
	tok := Token{Kind: Ident, Text: "CrEaTe"}
	if !tok.Match("create") || !tok.Match("CREATE") {
		t.Error("Match should be case-insensitive")
	}
	quoted := Token{Kind: QuotedIdent, Text: "create"}
	if quoted.Match("create") {
		t.Error("quoted identifiers must not match keywords")
	}
}

// TestTokenizeNeverPanicsOrLoops is a property test: the lexer must
// terminate with an EOF token on arbitrary input.
func TestTokenizeNeverPanicsOrLoops(t *testing.T) {
	f := func(s string) bool {
		toks := Tokenize(s)
		return len(toks) >= 1 && toks[len(toks)-1].Kind == EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSplitStatementsCoversInput checks that splitting loses no
// non-separator content: rejoining the statements and re-lexing yields the
// same token stream as lexing the original minus top-level semicolons.
func TestSplitStatementsCoversInput(t *testing.T) {
	src := "CREATE TABLE a (x INT, y TEXT); DROP TABLE a; ALTER TABLE b ADD c INT"
	orig := Tokenize(src)
	var origNoSemi []Token
	for _, tk := range orig {
		if tk.Kind != Semi && tk.Kind != EOF {
			origNoSemi = append(origNoSemi, tk)
		}
	}
	var rejoined []Token
	for _, s := range SplitStatements(src) {
		for _, tk := range Tokenize(s) {
			if tk.Kind != EOF {
				rejoined = append(rejoined, tk)
			}
		}
	}
	if len(rejoined) != len(origNoSemi) {
		t.Fatalf("token count mismatch: %d vs %d", len(rejoined), len(origNoSemi))
	}
	for i := range rejoined {
		if rejoined[i].Kind != origNoSemi[i].Kind || rejoined[i].Text != origNoSemi[i].Text {
			t.Errorf("token %d: %v vs %v", i, rejoined[i], origNoSemi[i])
		}
	}
}

// TestLexTablePerProfile: tableFor hands every LexProfile the table built
// from exactly that profile, so no dialect rule is lost in the indexing.
func TestLexTablePerProfile(t *testing.T) {
	if n := reflect.TypeOf(LexProfile{}).NumField(); len(lexTables) != 1<<n {
		t.Fatalf("%d tables for a profile of %d fields", len(lexTables), n)
	}
	seen := map[*lexTable]bool{}
	for i := range lexTables {
		p := lexTables[i].prof
		if tab := tableFor(p); tab.prof != p || seen[tab] {
			t.Fatalf("profile %+v maps to the table of %+v", p, tab.prof)
		} else {
			seen[tab] = true
		}
	}
}

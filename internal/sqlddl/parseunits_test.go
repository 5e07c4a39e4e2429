package sqlddl_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"schemaevo/internal/corpus"
	"schemaevo/internal/sqlddl"
	"schemaevo/internal/sqlddl/dialect"
	"schemaevo/internal/synth"
)

// Differential tests of Session.ParseUnits (boundary scan, cache lookup,
// lexing of misses only) against OracleParseUnits (lex everything, parse
// every statement afresh).

var allDialects = append([]sqlddl.Dialect{sqlddl.Generic}, dialect.All()...)

// checkUnits fails t unless got and want are deep-equal: the same unit
// texts, statements and errors, error positions included.
func checkUnits(t *testing.T, label, src string, got, want []sqlddl.Unit) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	for i := 0; i < len(got) || i < len(want); i++ {
		if i >= len(got) || i >= len(want) || !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: unit %d differs (%d units, oracle %d)\n got: %s\nwant: %s\nsrc: %q",
				label, i, len(got), len(want), unitString(got, i), unitString(want, i), src)
		}
	}
}

func unitString(us []sqlddl.Unit, i int) string {
	if i >= len(us) {
		return "<none>"
	}
	u := us[i]
	s := fmt.Sprintf("text %q stmt %#v", u.Text, u.Stmt)
	if u.Err != nil {
		s += fmt.Sprintf(" err %+v", *u.Err)
	}
	return s
}

// checkScript compares ParseUnits on sess, with whatever it has cached,
// against the oracle.
func checkScript(t *testing.T, label string, d sqlddl.Dialect, sess *sqlddl.Session, src string) {
	t.Helper()
	ref := sqlddl.NewSession()
	ref.SetDialect(d)
	checkUnits(t, label, src, sess.ParseUnits(src, nil), sqlddl.OracleParseUnits(ref, src))
}

func TestCachedErrorPositionIsRebased(t *testing.T) {
	for _, c := range []struct {
		name, src       string
		line, col, stmt int
	}{
		// The same failing statement again, further down and indented.
		{"token", "CREATE TABLE 1;\n\n\n  CREATE TABLE 1;", 4, 16, 1},
		// Below the statement's first line the column is absolute.
		{"later line", "CREATE TABLE t (\na INT, 1);\n  CREATE TABLE t (\na INT, 1);", 4, 8, 1},
		// An error at the statement's end sits at its terminator, which
		// is not part of the cached text.
		{"at end", "ALTER TABLE t ADD;\nALTER TABLE t ADD -- c\n  ;", 3, 3, 1},
		{"at end of script", "ALTER TABLE t ADD;\nALTER TABLE t ADD\n\n", 4, 1, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			script := sqlddl.Parse(c.src)
			if len(script.Errors) != 2 {
				t.Fatalf("errors = %v, want 2", script.Errors)
			}
			e := script.Errors[1]
			if e.Stmt != c.stmt || e.Line != c.line || e.Col != c.col {
				t.Errorf("second error = statement %d at %d:%d, want statement %d at %d:%d",
					e.Stmt, e.Line, e.Col, c.stmt, c.line, c.col)
			}
			checkScript(t, c.name, sqlddl.Generic, sqlddl.NewSession(), c.src)
		})
	}
}

// parseUnitsSeeds are the boundary scan's edge cases: elements that hide
// or fake a terminator under some lex profile.
var parseUnitsSeeds = []string{
	"1$a$;$a$",
	"$a$;$a$ x; y",
	"a$b$;c",
	"1e-5--x;",
	"1e--5;2E+;3.4.5;.5e5",
	"a\\",
	"'a\\",
	"'a\\'; b'; c",
	"/* unterminated ; comment",
	"a /**/ b /*/ c */; d",
	"'it''s; fine'; \"q\"\"; x\"; `b``; t`; [br]]; k]; x",
	"CREATE TABLE t (a INT DEFAULT ';', b TEXT); DROP TABLE t",
	"CREATE TABLE t (a INT; b INT); x",
	"SELECT [a;b]; SELECT `c;d`; SELECT \"e;f\"",
	"# hash ; comment\nCREATE TABLE h (a INT);",
	"-- dash ; comment\nCREATE TABLE h (a INT) -- trail ;\n;",
	"CREATE FUNCTION f() RETURNS int AS $$ SELECT 1; $$ LANGUAGE sql; CREATE TABLE z (a INT);",
	"CREATE TABLE ((((;)))); ;;",
	"CREATE TABLE 1;\n\n\n  CREATE TABLE 1;",
	"ALTER TABLE t ADD;\r\nALTER TABLE t ADD  \t;\nALTER TABLE t ADD",
	" CREATE TABLE t (a INT);CREATE TABLE t (a INT); ",
	"CREATE TABLE t (a INT) x ; CREATE TABLE t (a INT) x",
	"'unterminated   ",
	"a <= b <> c >= d != e :: f || g; |",
	// A non-ASCII space is trimmed from the unit text but lexes as part
	// of an identifier, so the text alone must not be the cache key.
	"\u00a0CREATE TABLE t (a INT);CREATE TABLE t (a INT)",
	// Bytes whose meaning the lex profile decides; FuzzParseUnits runs
	// each seed under all four profiles.
	"# c ; d\nCREATE TABLE a (b INT); x#y; z",
	"CREATE TABLE `a;b` (`c``;` INT); `x",
	"CREATE TABLE [a;b] ([c]];] INT); [x; y",
	"CREATE FUNCTION f() AS $body$ ; $b$ ; $body$; $x$;y$x$ $; $1; a$b$; z",
	"CREATE TABLE t (a text DEFAULT 'C:\\');\nCREATE TABLE u (b int);\n",
	"CREATE TABLE t (a text DEFAULT E'\\'');\nCREATE TABLE u (b int DEFAULT e'\\\\'); E; e'x\\",
	"SELECT 'a\\'; SELECT 'b'; SELECT E'c\\'; d'",
	"email ; E ; e1'; x' ; Ea'b;'",
}

// FuzzParseUnits checks ParseUnits against the oracle under every lex
// profile, on a fresh session, on one that has already parsed the input,
// and on a shifted copy whose statements hit the cache at other
// positions. Run with
//
//	go test -run '^$' -fuzz '^FuzzParseUnits$' ./internal/sqlddl
func FuzzParseUnits(f *testing.F) {
	for _, s := range parseUnitsSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		for _, d := range allDialects {
			sess := sqlddl.NewSession()
			sess.SetDialect(d)
			checkScript(t, d.Name()+"/cold", d, sess, src)
			checkScript(t, d.Name()+"/warm", d, sess, src)
			checkScript(t, d.Name()+"/shifted", d, sess, "\n\t "+src)
		}
	})
}

// TestParseUnitsMatchesOracleOnCorpora replays every version of every DDL
// file of the paper corpus in each dialect, and of a random corpus,
// through one session per project, as the reconstructor does.
func TestParseUnitsMatchesOracleOnCorpora(t *testing.T) {
	type corpusCase struct {
		name string
		c    func() (*corpus.Corpus, error)
		d    sqlddl.Dialect
	}
	cases := []corpusCase{{"random", func() (*corpus.Corpus, error) { return synth.RandomCorpus(40, 7) }, sqlddl.Generic}}
	for _, d := range allDialects {
		cases = append(cases, corpusCase{d.Name(), func() (*corpus.Corpus, error) { return synth.PaperCorpusDialect(1, d.Name()) }, d})
	}
	for _, cc := range cases {
		t.Run(cc.name, func(t *testing.T) {
			c, err := cc.c()
			if err != nil {
				t.Fatal(err)
			}
			units := 0
			for _, p := range c.Projects {
				sess := sqlddl.NewSession()
				sess.SetDialect(cc.d)
				ref := sqlddl.NewSession()
				ref.SetDialect(cc.d)
				var got []sqlddl.Unit
				for _, cm := range p.Repo.Commits {
					paths := make([]string, 0, len(cm.Files))
					for path := range cm.Files {
						paths = append(paths, path)
					}
					sort.Strings(paths)
					for _, path := range paths {
						src := cm.Files[path]
						label := p.Name + "/" + cm.ID + "/" + path
						got = sess.ParseUnits(src, got[:0])
						want := sqlddl.OracleParseUnits(ref, src)
						checkUnits(t, label, src, got, want)
						units += len(got)
						if cc.d == sqlddl.Generic {
							checkSplit(t, label, src, got)
						}
					}
				}
			}
			if units == 0 {
				t.Fatal("corpus has no statements")
			}
			t.Logf("%d units equal to the oracle's", units)
		})
	}
}

// checkSplit pins SplitStatements to ParseUnits' unit texts.
func checkSplit(t *testing.T, label, src string, units []sqlddl.Unit) {
	t.Helper()
	texts := make([]string, len(units))
	for i, u := range units {
		texts[i] = u.Text
	}
	if split := sqlddl.SplitStatements(src); !reflect.DeepEqual(split, texts) && (len(split) > 0 || len(texts) > 0) {
		t.Fatalf("%s: SplitStatements = %q, unit texts %q", label, split, texts)
	}
}

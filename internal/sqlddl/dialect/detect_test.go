package dialect_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	core "schemaevo/internal/sqlddl"
	"schemaevo/internal/sqlddl/dialect"
	"schemaevo/internal/synth"
)

// labeledFile is one ground-truth detection sample.
type labeledFile struct {
	name string
	want core.DialectID
	src  string
}

// labeledCorpus assembles the detection benchmark: every conformance
// corpus file plus every schema-file version of synthetic repos realized
// in each flavor and style. All samples carry the generator's (or corpus
// author's) dialect as ground truth.
func labeledCorpus(t *testing.T) []labeledFile {
	t.Helper()
	var out []labeledFile
	byName := map[string]core.DialectID{
		"neutral":  core.DialectGeneric,
		"mysql":    core.DialectMySQL,
		"postgres": core.DialectPostgres,
		"sqlite":   core.DialectSQLite,
	}
	for dir, want := range byName {
		for name, src := range corpusFiles(t, dir) {
			out = append(out, labeledFile{name: dir + "/" + name, want: want, src: src})
		}
	}
	flavors := map[synth.Flavor]core.DialectID{
		synth.FlavorGeneric:  core.DialectGeneric,
		synth.FlavorMySQL:    core.DialectMySQL,
		synth.FlavorPostgres: core.DialectPostgres,
		synth.FlavorSQLite:   core.DialectSQLite,
	}
	start := time.Date(2012, 4, 1, 0, 0, 0, 0, time.UTC)
	// A steady 24-month schedule: a 6-attribute birth, then small monthly
	// churn — enough versions that each flavor/style pair contributes a
	// dozen labeled files.
	monthly := make([]int, 24)
	monthly[0] = 6
	for m := 2; m < 24; m += 2 {
		monthly[m] = 3
	}
	sched := &synth.Schedule{PUP: 24, Monthly: monthly, ExpShare: 0.7}
	styleName := map[synth.Style]string{synth.FullDump: "dump", synth.MigrationScript: "migration"}
	for flavor, want := range flavors {
		for style, sname := range styleName {
			repo, err := synth.RealizeFlavored(sched, "det", start, rand.New(rand.NewSource(17)), style, flavor)
			if err != nil {
				t.Fatal(err)
			}
			path := repo.MainDDLPath()
			for i, fv := range repo.FileHistory(path) {
				if fv.Deleted {
					continue
				}
				out = append(out, labeledFile{
					name: fmt.Sprintf("%s/%s/v%d", flavor, sname, i),
					want: want,
					src:  fv.Content,
				})
			}
		}
	}
	return out
}

// TestDetectionAccuracy pins the detector's accuracy on the labeled
// corpus: at least 50 samples, and not a single misattribution — the
// corpus is built from unambiguous real-world-shaped files, so anything
// below 100% is a detector regression, not corpus noise.
func TestDetectionAccuracy(t *testing.T) {
	files := labeledCorpus(t)
	if len(files) < 50 {
		t.Fatalf("labeled corpus has %d files, want >= 50", len(files))
	}
	correct := 0
	for _, lf := range files {
		got := dialect.DetectID(lf.src)
		if got == lf.want {
			correct++
		} else {
			t.Errorf("%s: detected %v, want %v (scores %+v)", lf.name, got, lf.want, dialect.Score(lf.src))
		}
	}
	acc := float64(correct) / float64(len(files))
	t.Logf("detection accuracy: %d/%d (%.1f%%)", correct, len(files), acc*100)
	const floor = 1.0
	if acc < floor {
		t.Fatalf("accuracy %.3f below pinned floor %.3f", acc, floor)
	}
}

// TestDetectionTieBreak pins the documented tie-break order
// MySQL > PostgreSQL > SQLite on engineered equal-evidence inputs, and
// Generic on signal-free input.
func TestDetectionTieBreak(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want core.DialectID
	}{
		// 2-2 ties between each pair (all signal words carry weight 2).
		{"mysql-vs-postgres", "CREATE TABLE t (a int unsigned, b int) TABLESPACE x;", core.DialectMySQL},
		{"mysql-vs-sqlite", "CREATE TABLE t (a int zerofill, b text CHECK (b GLOB 'x*'));", core.DialectMySQL},
		{"postgres-vs-sqlite", "CREATE INDEX i ON t USING gin (a); SELECT 1 WHERE a GLOB 'x*';", core.DialectPostgres},
		// Three-way 2-2-2 tie.
		{"three-way", "CREATE TABLE t (a int unsigned) TABLESPACE x; SELECT 1 WHERE a GLOB 'y';", core.DialectMySQL},
		// No evidence at all.
		{"signal-free", "CREATE TABLE t (a int, b text, PRIMARY KEY (a));", core.DialectGeneric},
		{"empty", "", core.DialectGeneric},
	}
	for _, tc := range cases {
		s := dialect.Score(tc.src)
		if got := dialect.DetectID(tc.src); got != tc.want {
			t.Errorf("%s: detected %v, want %v (scores %+v)", tc.name, got, tc.want, s)
		}
	}
	// The engineered ties must actually be ties, or the cases silently
	// stop testing the tie-break.
	for _, tc := range cases[:3] {
		s := dialect.Score(tc.src)
		max := s.MySQL
		if s.Postgres > max {
			max = s.Postgres
		}
		if s.SQLite > max {
			max = s.SQLite
		}
		tied := 0
		for _, v := range []int{s.MySQL, s.Postgres, s.SQLite} {
			if v == max {
				tied++
			}
		}
		if max == 0 || tied < 2 {
			t.Errorf("%s: not a tie (scores %+v)", tc.name, s)
		}
	}
}

// TestDetectTrailingBackslash: in PostgreSQL and SQLite a backslash in a
// '...' literal is an ordinary character, so a literal may end in one.
// The PostgreSQL reading must close the literal there and go on to count
// the serial/jsonb/timestamptz/bytea evidence behind it.
func TestDetectTrailingBackslash(t *testing.T) {
	src := "CREATE TABLE t (a text DEFAULT 'C:\\');\nCREATE TABLE u (id serial, b jsonb, c timestamptz);\nCREATE TABLE v (x bytea);"
	if got := dialect.DetectID(src); got != core.DialectPostgres {
		t.Errorf("detected %v, want postgres (scores %+v)", got, dialect.Score(src))
	}
}

// foreign is other dialects' syntax with no delimiter of its own: every
// word votes when read as a token.
const foreign = "engine=innodb auto_increment unsigned serial jsonb ::int4 nextval autoincrement pragma rowid glob"

// TestForeignSyntaxNeverVotes: another dialect's syntax placed inside a
// string, a comment or a quoted identifier never votes. Each case fills
// one construct of a host script once with "x" and once with foreign
// syntax, and the scores must not move: all three for constructs every
// dialect reads alike, the host's own for constructs only the host has.
// (The other dialects read the contents of those as tokens, and those
// tokens vote for them as the other dialects' parsers would read them.)
func TestForeignSyntaxNeverVotes(t *testing.T) {
	delims := foreign + " `b` #h $$d$$ x[1] [s]"
	shared := []struct{ name, hole, fill string }{
		{"string", "a text DEFAULT '%s'", delims},
		{"quoted identifier", `"a""b %s" text`, delims},
		{"line comment", "a int -- %s\n", delims},
		{"block comment", "/* %s */ a int", delims},
	}
	hosts := []struct {
		id     core.DialectID
		script string
		own    []struct{ name, hole, fill string }
	}{
		{core.DialectMySQL, "CREATE TABLE `t` (id int unsigned AUTO_INCREMENT, %s) ENGINE=InnoDB;", []struct{ name, hole, fill string }{
			{"backtick identifier", "`%s` text", foreign + ` #h $$d$$ x[1] [s] "q"`},
			{"hash comment", "a int # %s\n", delims},
			{"escaped string", `a text DEFAULT 'it\'s %s'`, delims},
		}},
		{core.DialectPostgres, "CREATE TABLE t (id serial PRIMARY KEY, %s);", []struct{ name, hole, fill string }{
			{"dollar string", "a text DEFAULT $fn$%s$fn$", delims},
			{"escape string", `a text DEFAULT E'it\'s %s'`, delims},
			{"backslash-ended string", `a text DEFAULT 'C:\', b text DEFAULT '%s'`, delims},
		}},
		{core.DialectSQLite, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTOINCREMENT, %s);", []struct{ name, hole, fill string }{
			{"bracket identifier", "[%s] text", foreign + " `b` #h $$d$$ x[1 \"q\""},
			{"backslash-ended string", `a text DEFAULT 'C:\', b text DEFAULT '%s'`, delims},
		}},
	}
	for _, h := range hosts {
		fill := func(hole, s string) string { return fmt.Sprintf(h.script, fmt.Sprintf(hole, s)) }
		for _, c := range shared {
			plain, with := fill(c.hole, "x"), fill(c.hole, c.fill)
			if sp, sw := dialect.Score(plain), dialect.Score(with); sp != sw {
				t.Errorf("%v, %s: scores %+v became %+v\n%s", h.id, c.name, sp, sw, with)
			}
		}
		for _, c := range h.own {
			plain, with := fill(c.hole, "x"), fill(c.hole, c.fill)
			if sp, sw := ownScore(dialect.ByID(h.id), dialect.Score(plain)), ownScore(dialect.ByID(h.id), dialect.Score(with)); sp != sw {
				t.Errorf("%v, %s: own score %d became %d\n%s", h.id, c.name, sp, sw, with)
			}
		}
	}
}

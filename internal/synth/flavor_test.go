package synth

import (
	"math/rand"
	"testing"
	"time"

	"schemaevo/internal/core"
	"schemaevo/internal/history"
	"schemaevo/internal/schema"
	"schemaevo/internal/sqlddl"
	"schemaevo/internal/sqlddl/dialect"
)

// flavorCases pairs each concrete flavor with the dialect its text must
// detect as.
var flavorCases = []struct {
	flavor Flavor
	want   sqlddl.DialectID
}{
	{FlavorMySQL, sqlddl.DialectMySQL},
	{FlavorPostgres, sqlddl.DialectPostgres},
	{FlavorSQLite, sqlddl.DialectSQLite},
}

// realizeFlavorPair realizes the same schedule under generic and a
// concrete flavor with identical rng streams, in the given style.
func realizeFlavorPair(t *testing.T, style Style, flavor Flavor) (generic, flavored *history.History) {
	t.Helper()
	s, err := generateVerified(rand.New(rand.NewSource(21)), genRegularEarly, BornM0,
		core.RegularlyCurated, false, scheme)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2013, 3, 1, 0, 0, 0, 0, time.UTC)
	g, err := RealizeFlavored(s, "g", start, rand.New(rand.NewSource(5)), style, FlavorGeneric)
	if err != nil {
		t.Fatal(err)
	}
	f, err := RealizeFlavored(s, "f", start, rand.New(rand.NewSource(5)), style, flavor)
	if err != nil {
		t.Fatal(err)
	}
	hg, err := history.FromRepo(g)
	if err != nil {
		t.Fatal(err)
	}
	hf, err := history.FromRepo(f)
	if err != nil {
		t.Fatal(err)
	}
	return hg, hf
}

// TestFlavoredRealizationMatchesGenericHeartbeat: restyling the DDL in a
// concrete dialect never perturbs the measured monthly heartbeat — the
// invariance the cross-dialect experiment table rests on.
func TestFlavoredRealizationMatchesGenericHeartbeat(t *testing.T) {
	for _, tc := range flavorCases {
		for _, style := range []Style{FullDump, MigrationScript} {
			hg, hf := realizeFlavorPair(t, style, tc.flavor)
			if len(hg.SchemaMonthly) != len(hf.SchemaMonthly) {
				t.Fatalf("%v style %v: heartbeat lengths differ", tc.flavor, style)
			}
			for m := range hg.SchemaMonthly {
				if hg.SchemaMonthly[m] != hf.SchemaMonthly[m] {
					t.Fatalf("%v style %v: month %d heartbeat %d (generic) vs %d (flavored)",
						tc.flavor, style, m, hg.SchemaMonthly[m], hf.SchemaMonthly[m])
				}
			}
		}
	}
}

// TestFlavoredFilesDetectAsOwnDialect: every version of a flavored repo's
// DDL file — dump or migration style — detects as the flavor's dialect,
// and auto-dialect history extraction records it.
func TestFlavoredFilesDetectAsOwnDialect(t *testing.T) {
	s, err := generateVerified(rand.New(rand.NewSource(33)), genRadicalSign, BornM0,
		core.RadicalSign, false, scheme)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2011, 9, 1, 0, 0, 0, 0, time.UTC)
	for _, tc := range flavorCases {
		for _, style := range []Style{FullDump, MigrationScript} {
			repo, err := RealizeFlavored(s, "det", start, rand.New(rand.NewSource(3)), style, tc.flavor)
			if err != nil {
				t.Fatal(err)
			}
			path := repo.MainDDLPath()
			for i, fv := range repo.FileHistory(path) {
				if fv.Deleted {
					continue
				}
				if got := dialect.DetectID(fv.Content); got != tc.want {
					t.Fatalf("%v style %v: version %d detected as %v", tc.flavor, style, i, got)
				}
			}
			rc := schema.NewReconstructor()
			parsed, err := history.ParseVersionsIn(rc, repo, path, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := rc.DialectID(); got != tc.want {
				t.Errorf("%v style %v: auto-detected history dialect = %v", tc.flavor, style, got)
			}
			h := history.Assemble(repo, path, parsed)
			if h.NoteCount() != 0 {
				t.Errorf("%v style %v: %d parse notes under own adapter", tc.flavor, style, h.NoteCount())
			}
		}
	}
}

// TestPaperCorpusDialectMatchesGeneric: the flavored paper corpus has the
// same projects (names, ground truth, commit schedule) as the generic one
// for the same seed, and tags each project with the dialect.
func TestPaperCorpusDialectMatchesGeneric(t *testing.T) {
	gen, err := PaperCorpus(13)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mysql", "postgres", "sqlite"} {
		c, err := PaperCorpusDialect(13, name)
		if err != nil {
			t.Fatal(err)
		}
		if c.Len() != gen.Len() {
			t.Fatalf("%s: %d projects, generic has %d", name, c.Len(), gen.Len())
		}
		for i, p := range c.Projects {
			g := gen.Projects[i]
			if p.Name != g.Name || p.GroundTruth != g.GroundTruth {
				t.Fatalf("%s: project %d is %s/%v, generic %s/%v",
					name, i, p.Name, p.GroundTruth, g.Name, g.GroundTruth)
			}
			if len(p.Repo.Commits) != len(g.Repo.Commits) {
				t.Fatalf("%s: %s commit counts diverge", name, p.Name)
			}
			if p.Dialect != name {
				t.Fatalf("%s: %s tagged %q", name, p.Name, p.Dialect)
			}
		}
	}
	if _, err := PaperCorpusDialect(13, "oracle"); err == nil {
		t.Error("unknown dialect accepted")
	}
}

// TestGenericFlavorIsByteIdentical: FlavorGeneric must reproduce the
// pre-flavor rendering byte-for-byte — the reproduce goldens pin it.
func TestGenericFlavorIsByteIdentical(t *testing.T) {
	s, err := generateVerified(rand.New(rand.NewSource(2)), genSigmoid, BornAfterM12,
		core.Sigmoid, false, scheme)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	a, err := RealizeStyled(s, "x", start, rand.New(rand.NewSource(9)), FullDump)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RealizeFlavored(s, "x", start, rand.New(rand.NewSource(9)), FullDump, FlavorGeneric)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.FileHistory(a.MainDDLPath()), b.FileHistory(b.MainDDLPath())
	if len(pa) != len(pb) {
		t.Fatal("version counts differ")
	}
	for i := range pa {
		if pa[i].Content != pb[i].Content {
			t.Fatalf("version %d: generic flavor not byte-identical", i)
		}
	}
}

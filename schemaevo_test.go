package schemaevo

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func day(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 12, 0, 0, 0, time.UTC)
}

func flatlinerRepo() *Repo {
	return &Repo{Name: "flat-demo", Commits: []Commit{
		{ID: "0", Time: day(2019, 1, 3),
			Files:    map[string]string{"schema.sql": "CREATE TABLE users (id INT PRIMARY KEY, name TEXT);"},
			SrcLines: 50},
		{ID: "1", Time: day(2021, 6, 1), Files: map[string]string{"main.go": "x"}, SrcLines: 10},
	}}
}

func TestAnalyzeRepoFlatliner(t *testing.T) {
	a, err := AnalyzeRepo(flatlinerRepo())
	if err != nil {
		t.Fatal(err)
	}
	if a.Pattern != Flatliner || !a.Exact {
		t.Errorf("pattern = %v exact=%v", a.Pattern, a.Exact)
	}
	if a.Family != BeQuickOrBeDead {
		t.Errorf("family = %v", a.Family)
	}
	if a.Measures.TotalActivity != 2 {
		t.Errorf("activity = %d", a.Measures.TotalActivity)
	}
	line := a.SchemaLine()
	if len(line) != a.Measures.PUPMonths || line[0] != 1.0 {
		t.Errorf("schema line: %v", line)
	}
	if !strings.Contains(a.Chart(), "Flatliner") {
		t.Error("chart lacks pattern name")
	}
	if !strings.HasPrefix(a.ChartSVG(), "<svg") {
		t.Error("bad SVG")
	}
}

func TestAnalyzeRepoErrors(t *testing.T) {
	noSchema := &Repo{Name: "empty-sql", Commits: []Commit{
		{ID: "0", Time: day(2020, 1, 1), Files: map[string]string{"schema.sql": "-- nothing here\n"}},
		{ID: "1", Time: day(2021, 6, 1), Files: map[string]string{"x.go": "y"}},
	}}
	if _, err := AnalyzeRepo(noSchema); err == nil {
		t.Error("schema-less project should fail")
	}
	noDDL := &Repo{Name: "noddl", Commits: []Commit{
		{ID: "0", Time: day(2020, 1, 1), Files: map[string]string{"x.go": "y"}},
	}}
	if _, err := AnalyzeRepo(noDDL); err == nil {
		t.Error("DDL-less project should fail")
	}
}

func TestAnalyzeDir(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"0000_2018-02-01.sql": "CREATE TABLE a (x INT);",
		"0001_2019-11-01.sql": "CREATE TABLE a (x INT, y INT); CREATE TABLE b (z TEXT);",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	a, err := AnalyzeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if a.Measures.TotalActivity != 3 {
		t.Errorf("activity = %d", a.Measures.TotalActivity)
	}
	if a.Measures.PUPMonths != 22 {
		t.Errorf("PUP = %d", a.Measures.PUPMonths)
	}
	if _, err := AnalyzeDir(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing dir should fail")
	}
}

func TestGenerateAndAnalyzeCorpus(t *testing.T) {
	c, err := GenerateRandomCorpus(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := AnalyzeCorpus(c); err != nil {
		t.Fatal(err)
	}
	for _, p := range c.Projects {
		a, err := AnalyzeRepo(p.Repo)
		if err != nil {
			t.Fatal(err)
		}
		if a.Pattern != p.GroundTruth {
			t.Errorf("%s: public API classified %v, ground truth %v", p.Name, a.Pattern, p.GroundTruth)
		}
	}
}

func TestClassifyHelpers(t *testing.T) {
	a, err := AnalyzeRepo(flatlinerRepo())
	if err != nil {
		t.Fatal(err)
	}
	if got := ClassifyLabels(a.Labels); got != Flatliner {
		t.Errorf("ClassifyLabels = %v", got)
	}
	if got := ClassifyNearest(a.Labels); got != Flatliner {
		t.Errorf("ClassifyNearest = %v", got)
	}
	if FamilyOf(Siesta) != ScaredToFallAsleepAgain {
		t.Error("FamilyOf wrong")
	}
}

func TestLoadRepoRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repo.json")
	r := flatlinerRepo()
	if err := r.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadRepo(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != r.Name {
		t.Errorf("name = %q", back.Name)
	}
}

func TestFacadeCoverage(t *testing.T) {
	for _, p := range AllPatterns {
		if Describe(p) == "" {
			t.Errorf("Describe(%v) empty", p)
		}
	}
	if DescribeFamily(BeQuickOrBeDead) == "" {
		t.Error("DescribeFamily empty")
	}
	c, err := GeneratePaperCorpus(2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 151 {
		t.Fatalf("paper corpus = %d", c.Len())
	}
	if err := AnalyzeCorpusParallel(c, 4); err != nil {
		t.Fatal(err)
	}
	for _, p := range c.Projects {
		if !p.Analyzed {
			t.Fatalf("%s not analyzed", p.Name)
		}
	}
}

// TestAnalyzeCorpusParallelOneWorkerCollectsAll pins that a one-worker run
// keeps the collect-all contract: it does not stop at the first failure,
// names every failing project, and still analyzes the healthy ones.
func TestAnalyzeCorpusParallelOneWorkerCollectsAll(t *testing.T) {
	noDDL := func(name string) *Repo {
		return &Repo{Name: name, Commits: []Commit{
			{ID: "0", Time: day(2020, 1, 1), Files: map[string]string{"x.go": "y"}},
		}}
	}
	ok := flatlinerRepo()
	c := &Corpus{Projects: []*Project{
		{Name: "bad-first", Repo: noDDL("bad-first")},
		{Name: ok.Name, Repo: ok},
		{Name: "bad-last", Repo: noDDL("bad-last")},
	}}
	err := AnalyzeCorpusParallel(c, 1)
	if err == nil {
		t.Fatal("expected an error")
	}
	for _, name := range []string{"bad-first", "bad-last"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not name %q: %v", name, err)
		}
	}
	if !c.Projects[1].Analyzed {
		t.Errorf("healthy project %q after a failure was not analyzed", ok.Name)
	}
}

func TestAnalyzeGitMissingBinaryOrRepo(t *testing.T) {
	// A directory that is not a git repository must fail cleanly.
	if _, err := AnalyzeGit(t.TempDir(), 0); err == nil {
		t.Error("non-repo dir should fail")
	}
}

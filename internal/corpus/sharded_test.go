package corpus_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"schemaevo/internal/corpus"
	"schemaevo/internal/pipeline"
	"schemaevo/internal/vcs"
)

// TestAnalyzeParallelAggregatesAllFailures is the regression test for the
// old behaviour of reporting only the first failure: when a corpus is
// analyzed across several shards, every failure must be present in the
// joined error, in corpus order, and the healthy projects must still be
// analyzed. Parallel corpus analysis runs only through pipeline.Run, so
// this drives it with an explicit multi-shard count.
func TestAnalyzeParallelAggregatesAllFailures(t *testing.T) {
	start := time.Date(2020, 1, 1, 12, 0, 0, 0, time.UTC)
	noDDL := func(name string) *vcs.Repo {
		return &vcs.Repo{Name: name, Commits: []vcs.Commit{
			{ID: "0", Time: start, Files: map[string]string{"main.go": "x"}},
		}}
	}
	flat := &vcs.Repo{Name: "ok", Commits: []vcs.Commit{
		{ID: "0", Time: start, SrcLines: 10,
			Files: map[string]string{"schema.sql": "CREATE TABLE t (a INT, b INT, c TEXT);"}},
		{ID: "1", Time: start.AddDate(0, 19, 0), SrcLines: 5,
			Files: map[string]string{"main.go": "x"}},
	}}
	c := &corpus.Corpus{Projects: []*corpus.Project{
		{Name: "bad-alpha", Repo: noDDL("bad-alpha")},
		{Name: "ok", Repo: flat},
		{Name: "bad-beta", Repo: noDDL("bad-beta")},
		{Name: "bad-gamma", Repo: noDDL("bad-gamma")},
	}}
	_, err := pipeline.Run(context.Background(), c, pipeline.Options{Shards: 4})
	if err == nil {
		t.Fatal("expected an error")
	}
	msg := err.Error()
	for _, name := range []string{"bad-alpha", "bad-beta", "bad-gamma"} {
		if !strings.Contains(msg, name) {
			t.Errorf("aggregated error does not mention %q:\n%s", name, msg)
		}
	}
	// Corpus-order aggregation: alpha before beta before gamma.
	if a, b, g := strings.Index(msg, "bad-alpha"), strings.Index(msg, "bad-beta"),
		strings.Index(msg, "bad-gamma"); !(a < b && b < g) {
		t.Errorf("failures not in corpus order:\n%s", msg)
	}
	if !c.Projects[1].Analyzed {
		t.Error("healthy project was not analyzed")
	}
}

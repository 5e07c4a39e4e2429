package pipeline

import (
	"context"
	"testing"
	"time"

	"schemaevo/internal/corpus"
	"schemaevo/internal/quantize"
	"schemaevo/internal/vcs"
)

// degenerateCorpus builds projects at the edges of the lifetime model:
// a project whose whole history fits in one calendar month (the shortest
// legal PUP), and a project whose DDL file is deleted and later recreated
// (the schema dies to an empty snapshot and is reborn). Analysis mutates
// projects, so every caller gets a fresh copy.
func degenerateCorpus(t *testing.T) *corpus.Corpus {
	t.Helper()
	mk := func(y int, m time.Month, d int) time.Time {
		return time.Date(y, m, d, 10, 0, 0, 0, time.UTC)
	}
	oneMonth := &vcs.Repo{Name: "one-month", Commits: []vcs.Commit{
		{ID: "0", Time: mk(2021, 3, 2), Files: map[string]string{"db.sql": "CREATE TABLE a (x INT);"}, SrcLines: 10},
		{ID: "1", Time: mk(2021, 3, 15), Files: map[string]string{"db.sql": "CREATE TABLE a (x INT, y INT);"}, SrcLines: 4},
		{ID: "2", Time: mk(2021, 3, 30), Files: map[string]string{"db.sql": "CREATE TABLE a (x INT, y INT);\nCREATE TABLE b (z INT);"}, SrcLines: 7},
	}}
	reborn := &vcs.Repo{Name: "reborn-ddl", Commits: []vcs.Commit{
		{ID: "0", Time: mk(2020, 1, 5), Files: map[string]string{"db.sql": "CREATE TABLE a (x INT, y INT);"}, SrcLines: 20},
		{ID: "1", Time: mk(2020, 4, 5), Files: map[string]string{"main.go": "x"}, Deleted: []string{"db.sql"}, SrcLines: 3},
		{ID: "2", Time: mk(2020, 9, 5), Files: map[string]string{"db.sql": "CREATE TABLE c (p INT, q INT, r INT);"}, SrcLines: 9},
		{ID: "3", Time: mk(2021, 2, 5), Files: map[string]string{"main.go": "y"}, SrcLines: 2},
	}}
	for _, r := range []*vcs.Repo{oneMonth, reborn} {
		if err := r.Validate(); err != nil {
			t.Fatalf("fixture %s: %v", r.Name, err)
		}
	}
	return &corpus.Corpus{Projects: []*corpus.Project{
		{Name: oneMonth.Name, Repo: oneMonth},
		{Name: reborn.Name, Repo: reborn},
	}}
}

// TestDegenerateLifetimes drives the edge-case projects through the
// sequential analyzer and the full parallel pipeline, cold and warm
// cache, and requires identical results everywhere — plus the shape
// invariants that make these histories degenerate in the first place.
func TestDegenerateLifetimes(t *testing.T) {
	scheme := quantize.DefaultScheme()

	seq := degenerateCorpus(t)
	if err := seq.Analyze(scheme); err != nil {
		t.Fatal(err)
	}

	cacheDir := t.TempDir()
	for _, phase := range []string{"cold", "warm"} {
		c := degenerateCorpus(t)
		stats, err := Run(context.Background(), c, Options{CacheDir: cacheDir})
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		if stats.Failed != 0 {
			t.Fatalf("%s: %d projects failed: %s", phase, stats.Failed, stats.Degradation.Render())
		}
		wantHits := 0
		if phase == "warm" {
			wantHits = c.Len()
		}
		if stats.CacheHits != wantHits {
			t.Errorf("%s: cache hits = %d, want %d", phase, stats.CacheHits, wantHits)
		}
		assertSameAnalysis(t, "seq vs pipeline "+phase, seq, c)

		one := c.Projects[0]
		if months := one.History.Months(); months != 1 {
			t.Errorf("%s: one-month lifetime = %d months, want 1", phase, months)
		}
		if one.Measures.PUPMonths != 1 {
			t.Errorf("%s: one-month PUPMonths = %d, want 1", phase, one.Measures.PUPMonths)
		}
		if act := one.History.TotalActivity(); act == 0 || one.History.SchemaMonthly[0] != act {
			t.Errorf("%s: one-month activity %v not concentrated in its single month", phase, one.History.SchemaMonthly)
		}

		reb := c.Projects[1]
		if n := len(reb.History.Versions); n != 3 {
			t.Fatalf("%s: reborn versions = %d, want 3 (create, delete, recreate)", phase, n)
		}
		if tables := reb.History.Versions[1].Schema.Tables(); len(tables) != 0 {
			t.Errorf("%s: deleted DDL snapshot still has %d tables", phase, len(tables))
		}
		if tables := reb.History.Versions[2].Schema.Tables(); len(tables) != 1 {
			t.Errorf("%s: recreated DDL snapshot has %d tables, want 1", phase, len(tables))
		}
		if reb.History.MaintenanceTotal == 0 {
			t.Errorf("%s: deletion recorded no maintenance activity", phase)
		}
	}
}

// TestDegenerateLifetimesParallelWorkers runs the same corpus through the
// pipeline at several worker counts; degenerate histories must not depend
// on scheduling.
func TestDegenerateLifetimesParallelWorkers(t *testing.T) {
	scheme := quantize.DefaultScheme()
	seq := degenerateCorpus(t)
	if err := seq.Analyze(scheme); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 8} {
		c := degenerateCorpus(t)
		_, err := Run(context.Background(), c, Options{Shards: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		assertSameAnalysis(t, "degenerate workers", seq, c)
	}
}

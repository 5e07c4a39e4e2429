package pipeline

import (
	"context"
	"strings"
	"testing"
	"time"

	"schemaevo/internal/corpus"
	"schemaevo/internal/faultinject"
	"schemaevo/internal/history"
	"schemaevo/internal/metrics"
	"schemaevo/internal/schema"
	"schemaevo/internal/sqlddl"
	"schemaevo/internal/synth"
	"schemaevo/internal/telemetry"
	"schemaevo/internal/vcs"
)

// TestRunTelemetry drives a cold-then-warm pipeline run with a collector
// attached and checks the whole observability surface: stage registration
// and job accounting, cache hit/miss/byte counters, and per-project spans.
func TestRunTelemetry(t *testing.T) {
	dir := t.TempDir()
	n := 0

	for _, phase := range []string{"cold", "warm"} {
		c, err := synth.RandomCorpus(12, 5)
		if err != nil {
			t.Fatal(err)
		}
		n = c.Len()
		tel := telemetry.New()
		stats, err := Run(context.Background(), c, Options{CacheDir: dir, Telemetry: tel})
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}

		rep := tel.Snapshot()
		if len(rep.Stages) != 3 {
			t.Fatalf("%s: stages = %d, want 3", phase, len(rep.Stages))
		}
		for i, want := range []string{"parse", "assemble", "metrics"} {
			sr := rep.Stages[i]
			if sr.Name != want {
				t.Errorf("%s: stage %d = %q, want %q", phase, i, sr.Name, want)
			}
			if sr.Jobs != int64(n) {
				t.Errorf("%s: stage %s jobs = %d, want %d", phase, sr.Name, sr.Jobs, n)
			}
			if sr.Errors != 0 {
				t.Errorf("%s: stage %s errors = %d", phase, sr.Name, sr.Errors)
			}
		}
		if rep.Stages[0].Workers != int64(stats.Shards) {
			t.Errorf("%s: parse workers = %d, want %d", phase, rep.Stages[0].Workers, stats.Shards)
		}

		switch phase {
		case "cold":
			if rep.Cache.Misses != int64(n) || rep.Cache.Hits != 0 {
				t.Errorf("cold: cache hits/misses = %d/%d, want 0/%d", rep.Cache.Hits, rep.Cache.Misses, n)
			}
			if rep.Cache.Writes != int64(n) || rep.Cache.BytesWritten == 0 {
				t.Errorf("cold: cache writes = %d (%d bytes), want %d writes", rep.Cache.Writes, rep.Cache.BytesWritten, n)
			}
		case "warm":
			if rep.Cache.Hits != int64(n) || rep.Cache.Misses != 0 {
				t.Errorf("warm: cache hits/misses = %d/%d, want %d/0", rep.Cache.Hits, rep.Cache.Misses, n)
			}
			if rep.Cache.HitRate != 1 {
				t.Errorf("warm: hit rate = %v, want 1", rep.Cache.HitRate)
			}
			if rep.Cache.BytesRead == 0 {
				t.Error("warm: no cache bytes read recorded")
			}
		}

		// Every project leaves one span per stage it entered; a cache hit
		// still passes through all three stages.
		if rep.SpanCount != 3*n {
			t.Errorf("%s: spans = %d, want %d", phase, rep.SpanCount, 3*n)
		}
		for _, sp := range tel.Spans() {
			if sp.Project == "" || sp.Stage == "" || sp.DurUS < 0 {
				t.Fatalf("%s: malformed span %+v", phase, sp)
			}
		}
	}
}

// TestRunTelemetryFaultsAndDegradation checks that injected faults and
// per-project failures reach the collector's event tallies.
func TestRunTelemetryFaultsAndDegradation(t *testing.T) {
	c, err := synth.RandomCorpus(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	inj := faultinject.New(faultinject.Config{
		Seed:  1,
		Rate:  1, // every project faults at the parse site
		Kinds: []faultinject.Kind{faultinject.KindErr},
		Sites: []string{"pipeline.parse"},
	})
	stats, err := Run(context.Background(), c, Options{Fault: inj, Telemetry: tel})
	if err == nil {
		t.Fatal("expected failures under rate-1 injection")
	}
	if stats.Failed != c.Len() {
		t.Fatalf("failed = %d, want %d", stats.Failed, c.Len())
	}

	rep := tel.Snapshot()
	var faultTotal int64
	for _, f := range rep.Faults {
		if !strings.HasPrefix(f.Name, "pipeline.parse/") {
			t.Errorf("unexpected fault tally %q", f.Name)
		}
		faultTotal += f.Count
	}
	if faultTotal != int64(c.Len()) {
		t.Errorf("fault events = %d, want %d", faultTotal, c.Len())
	}
	if len(rep.Degradation) != 1 || rep.Degradation[0].Name != string(FailParse) || rep.Degradation[0].Count != int64(c.Len()) {
		t.Errorf("degradation tallies = %+v, want parse×%d", rep.Degradation, c.Len())
	}
	// The observer is detached after the run: later injector activity must
	// not mutate this run's report.
	inj.At("pipeline.parse", "post-run-key")
	if got := tel.Snapshot(); len(got.Faults) != len(rep.Faults) {
		t.Error("injector observer leaked past the run")
	}
}

// anomalousEntry builds a repo plus a cached analysis whose history
// carries an out-of-span version timestamp (the history.Assemble clamp
// path) — the way a data anomaly reaches a pipeline run in practice.
func anomalousEntry(t *testing.T, dir string) *vcs.Repo {
	t.Helper()
	mk := func(y int, m time.Month, d int) time.Time {
		return time.Date(y, m, d, 12, 0, 0, 0, time.UTC)
	}
	r := &vcs.Repo{Name: "skewed", Commits: []vcs.Commit{
		{ID: "0", Time: mk(2020, 1, 10), Files: map[string]string{"schema.sql": "CREATE TABLE a (x INT);"}, SrcLines: 5},
		{ID: "1", Time: mk(2020, 6, 10), Files: map[string]string{"schema.sql": "CREATE TABLE a (x INT, y INT);"}, SrcLines: 5},
		{ID: "2", Time: mk(2021, 6, 10), Files: map[string]string{"main.go": "x"}, SrcLines: 5},
	}}
	parsed, err := history.ParseVersionsIn(schema.NewReconstructor(), r, "schema.sql", sqlddl.Generic)
	if err != nil {
		t.Fatal(err)
	}
	parsed[1].Time = mk(2019, 3, 1) // before the project's first commit
	h := history.Assemble(r, "schema.sql", parsed)
	if len(h.SpanAnomalies()) != 1 {
		t.Fatalf("fixture: span anomalies = %v", h.SpanAnomalies())
	}
	cache, err := openCache(dir, nil, nil, context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cache.store(Fingerprint(r), r.Name, h, metrics.Compute(h))
	if cache.cnt.Load(telemetry.CacheWrites) != 1 {
		t.Fatal("fixture: cache entry was not written")
	}
	return r
}

// TestRunSurfacesDataAnomalies checks the full path of the out-of-span
// bugfix: a cached history carrying an AnomalyStmt note flows through
// pipeline.Run without failing the project, and surfaces as Stats.
// DataAnomalies, a DegradationReport.Anomalies entry, and a telemetry
// "anomaly" degradation event — while the run itself stays non-degraded.
func TestRunSurfacesDataAnomalies(t *testing.T) {
	dir := t.TempDir()
	r := anomalousEntry(t, dir)
	c := &corpus.Corpus{Projects: []*corpus.Project{{Name: r.Name, Repo: r}}}

	tel := telemetry.New()
	stats, err := Run(context.Background(), c, Options{CacheDir: dir, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Analyzed != 1 || stats.CacheHits != 1 {
		t.Fatalf("analyzed/hits = %d/%d, want 1/1", stats.Analyzed, stats.CacheHits)
	}
	if stats.DataAnomalies != 1 {
		t.Fatalf("data anomalies = %d, want 1", stats.DataAnomalies)
	}
	rep := stats.Degradation
	if rep.Degraded() {
		t.Error("anomaly wrongly marked the run degraded")
	}
	if len(rep.Anomalies) != 1 || rep.Anomalies[0].Project != "skewed" {
		t.Fatalf("report anomalies = %+v", rep.Anomalies)
	}
	if !strings.Contains(rep.Anomalies[0].Message, "outside the project span") {
		t.Errorf("anomaly message = %q", rep.Anomalies[0].Message)
	}
	if !strings.Contains(rep.Render(), "anomaly") {
		t.Errorf("rendered report omits the anomaly:\n%s", rep.Render())
	}
	snap := tel.Snapshot()
	found := false
	for _, d := range snap.Degradation {
		if d.Name == string(FailAnomaly) && d.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("telemetry degradation tallies = %+v, want anomaly×1", snap.Degradation)
	}
}

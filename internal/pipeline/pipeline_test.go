package pipeline

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"schemaevo/internal/core"
	"schemaevo/internal/corpus"
	"schemaevo/internal/quantize"
	"schemaevo/internal/synth"
	"schemaevo/internal/vcs"
)

// paperCorpus builds a fresh calibrated corpus; each caller gets its own
// copy because analysis mutates the projects.
func paperCorpus(t testing.TB, seed int64) *corpus.Corpus {
	t.Helper()
	c, err := synth.PaperCorpus(seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// assertSameAnalysis fails unless both corpora carry identical derived
// fields project by project.
func assertSameAnalysis(t *testing.T, label string, want, got *corpus.Corpus) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: corpus sizes differ: %d vs %d", label, want.Len(), got.Len())
	}
	for i := range want.Projects {
		w, g := want.Projects[i], got.Projects[i]
		if w.Name != g.Name {
			t.Fatalf("%s: project %d name %q vs %q", label, i, w.Name, g.Name)
		}
		if w.Analyzed != g.Analyzed {
			t.Fatalf("%s: %s: Analyzed %v vs %v", label, w.Name, w.Analyzed, g.Analyzed)
		}
		if !reflect.DeepEqual(w.Measures, g.Measures) {
			t.Errorf("%s: %s: measures differ:\n%+v\nvs\n%+v", label, w.Name, w.Measures, g.Measures)
		}
		if w.Labels != g.Labels {
			t.Errorf("%s: %s: labels differ: %+v vs %+v", label, w.Name, w.Labels, g.Labels)
		}
		if w.Assigned() != g.Assigned() {
			t.Errorf("%s: %s: assigned pattern %v vs %v", label, w.Name, w.Assigned(), g.Assigned())
		}
	}
}

// TestPipelineEquivalence is the satellite property test: for several
// seeds and shard counts, the sharded pipeline and the sequential Analyze
// must produce identical Measures, Labels and Assigned patterns for every
// project.
func TestPipelineEquivalence(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	workerCounts := []int{1, 2, 8, runtime.GOMAXPROCS(0)}
	scheme := quantize.DefaultScheme()
	for _, seed := range seeds {
		seq := paperCorpus(t, seed)
		if err := seq.Analyze(scheme); err != nil {
			t.Fatal(err)
		}
		for _, w := range workerCounts {
			piped := paperCorpus(t, seed)
			stats, err := Run(context.Background(), piped, Options{Shards: w})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, w, err)
			}
			if stats.Analyzed != piped.Len() {
				t.Fatalf("seed %d workers %d: analyzed %d of %d", seed, w, stats.Analyzed, piped.Len())
			}
			assertSameAnalysis(t, "seq vs pipeline", seq, piped)
		}
	}
}

// TestPipelineCacheWarm checks the memoization contract: a cold run fills
// the cache, a warm run restores every project from it (hit counter equals
// the corpus size, nothing recomputed), and the warm results are identical
// to an uncached sequential analysis.
func TestPipelineCacheWarm(t *testing.T) {
	dir := t.TempDir()
	opts := Options{CacheDir: dir}

	cold := paperCorpus(t, 1)
	stats, err := Run(context.Background(), cold, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != 0 {
		t.Errorf("cold run: %d cache hits, want 0", stats.CacheHits)
	}
	if stats.CacheWrites != cold.Len() {
		t.Errorf("cold run: %d cache writes, want %d", stats.CacheWrites, cold.Len())
	}

	warm := paperCorpus(t, 1)
	stats, err = Run(context.Background(), warm, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != warm.Len() || stats.CacheMisses != 0 {
		t.Errorf("warm run: hits %d misses %d, want %d and 0",
			stats.CacheHits, stats.CacheMisses, warm.Len())
	}

	seq := paperCorpus(t, 1)
	if err := seq.Analyze(quantize.DefaultScheme()); err != nil {
		t.Fatal(err)
	}
	assertSameAnalysis(t, "seq vs warm cache", seq, warm)
}

// TestPipelineCacheCorruptEntry: a truncated cache file must count as a
// miss (plus an error), never poison the results.
func TestPipelineCacheCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	c := paperCorpus(t, 2)
	if _, err := Run(context.Background(), c, Options{CacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.sevc"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no cache entries written (err %v)", err)
	}
	if err := os.WriteFile(entries[0], []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	warm := paperCorpus(t, 2)
	stats, err := Run(context.Background(), warm, Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheMisses != 1 || stats.CacheErrors == 0 {
		t.Errorf("stats = %+v, want exactly 1 miss and >0 cache errors", stats)
	}
	seq := paperCorpus(t, 2)
	if err := seq.Analyze(quantize.DefaultScheme()); err != nil {
		t.Fatal(err)
	}
	assertSameAnalysis(t, "seq vs corrupt-entry warm", seq, warm)
}

// badRepo is structurally valid but has no DDL file, so analysis fails.
func badRepo(name string) *vcs.Repo {
	return &vcs.Repo{Name: name, Commits: []vcs.Commit{{
		ID:   "0",
		Time: time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC),
		Files: map[string]string{
			"main.go": "package main",
		},
	}}}
}

func goodRepo(name string) *vcs.Repo {
	r := &vcs.Repo{Name: name}
	for i := 0; i < 14; i++ {
		r.Commits = append(r.Commits, vcs.Commit{
			ID:   "c",
			Time: time.Date(2020, time.Month(1+i), 1, 0, 0, 0, 0, time.UTC),
			Files: map[string]string{
				"schema.sql": "CREATE TABLE t (a INT);",
			},
			SrcLines: 10,
		})
	}
	return r
}

// TestPipelineCollectsAllFailures: with FailFast off, every failing
// project must be reported, attributed by name, in corpus order, and the
// healthy projects must still be analyzed.
func TestPipelineCollectsAllFailures(t *testing.T) {
	c := &corpus.Corpus{Projects: []*corpus.Project{
		{Name: "bad-alpha", Repo: badRepo("bad-alpha")},
		{Name: "ok-one", Repo: goodRepo("ok-one")},
		{Name: "bad-beta", Repo: badRepo("bad-beta")},
		{Name: "ok-two", Repo: goodRepo("ok-two")},
		{Name: "bad-gamma", Repo: badRepo("bad-gamma")},
	}}
	stats, err := Run(context.Background(), c, Options{})
	if err == nil {
		t.Fatal("expected an error")
	}
	msg := err.Error()
	for _, name := range []string{"bad-alpha", "bad-beta", "bad-gamma"} {
		if !strings.Contains(msg, name) {
			t.Errorf("error does not mention %q: %v", name, err)
		}
	}
	if a, b, g := strings.Index(msg, "bad-alpha"), strings.Index(msg, "bad-beta"),
		strings.Index(msg, "bad-gamma"); !(a < b && b < g) {
		t.Errorf("failures not in corpus order:\n%s", msg)
	}
	if stats.Failed != 3 || stats.Analyzed != 2 {
		t.Errorf("stats = %+v, want 3 failed and 2 analyzed", stats)
	}
	for _, p := range c.Projects {
		wantAnalyzed := strings.HasPrefix(p.Name, "ok")
		if p.Analyzed != wantAnalyzed {
			t.Errorf("%s: Analyzed = %v, want %v", p.Name, p.Analyzed, wantAnalyzed)
		}
	}
}

// TestPipelineFailFast: the first failure cancels the run and is reported.
func TestPipelineFailFast(t *testing.T) {
	projects := []*corpus.Project{{Name: "bad", Repo: badRepo("bad")}}
	for i := 0; i < 20; i++ {
		name := "ok-" + strings.Repeat("x", i+1)
		projects = append(projects, &corpus.Project{Name: name, Repo: goodRepo(name)})
	}
	c := &corpus.Corpus{Projects: projects}
	stats, err := Run(context.Background(), c, Options{FailFast: true, Shards: 1})
	if err == nil {
		t.Fatal("expected an error")
	}
	if !strings.Contains(err.Error(), `"bad"`) {
		t.Errorf("error does not name the failing project: %v", err)
	}
	if stats.Failed == 0 {
		t.Errorf("stats = %+v, want at least one failure", stats)
	}
}

// TestPipelineCancelledContext: a pre-cancelled context analyzes nothing
// and surfaces context.Canceled.
func TestPipelineCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := &corpus.Corpus{Projects: []*corpus.Project{
		{Name: "a", Repo: goodRepo("a")},
		{Name: "b", Repo: goodRepo("b")},
	}}
	stats, err := Run(ctx, c, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.Analyzed != 0 {
		t.Errorf("analyzed %d projects under a cancelled context", stats.Analyzed)
	}
}

// TestAnalyzeRepoSingle: the single-repo entry point matches a direct
// corpus analysis of the same repository.
func TestAnalyzeRepoSingle(t *testing.T) {
	res, stats, err := AnalyzeRepo(context.Background(), goodRepo("solo"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Analyzed != 1 {
		t.Fatalf("stats = %+v, want 1 analyzed", stats)
	}
	c := &corpus.Corpus{Projects: []*corpus.Project{{Name: "solo", Repo: goodRepo("solo")}}}
	if err := c.Analyze(quantize.DefaultScheme()); err != nil {
		t.Fatal(err)
	}
	p := c.Projects[0]
	if !reflect.DeepEqual(res.Measures, p.Measures) || res.Labels != p.Labels {
		t.Errorf("single-repo result differs from corpus analysis")
	}
	if core.ClassifyNearest(res.Labels) != core.ClassifyNearest(p.Labels) {
		t.Errorf("classification differs")
	}
}

// TestFingerprintSensitivity: the fingerprint must change when any
// analysis-relevant input changes, and must ignore non-DDL file content.
func TestFingerprintSensitivity(t *testing.T) {
	base := Fingerprint(goodRepo("fp"))
	if other := Fingerprint(goodRepo("fp")); other != base {
		t.Error("fingerprint not deterministic")
	}

	r := goodRepo("fp")
	r.Commits[3].Files["schema.sql"] = "CREATE TABLE t (a INT, b INT);"
	if Fingerprint(r) == base {
		t.Error("fingerprint ignores DDL content")
	}

	r = goodRepo("fp")
	r.Commits[3].Time = r.Commits[3].Time.Add(time.Hour)
	if Fingerprint(r) == base {
		t.Error("fingerprint ignores commit times")
	}

	r = goodRepo("fp")
	r.Commits[3].SrcLines = 99
	if Fingerprint(r) == base {
		t.Error("fingerprint ignores source-line counts")
	}

	r = goodRepo("fp")
	r.Name = "renamed"
	if Fingerprint(r) == base {
		t.Error("fingerprint ignores the repo name")
	}

	// Non-DDL content feeds the analysis only through SrcLines, which is
	// hashed separately; its raw content must not perturb the key.
	r = goodRepo("fp")
	r.Commits[3].Files["main.go"] = "package main // changed"
	if Fingerprint(r) != base {
		t.Error("fingerprint depends on non-DDL file content")
	}
}

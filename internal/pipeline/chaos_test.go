package pipeline

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"schemaevo/internal/corpus"
	"schemaevo/internal/faultinject"
	"schemaevo/internal/quantize"
)

// The chaos suite drives the full pipeline under deterministic injected
// faults (I/O errors, bit-rot, stalls, panics) and asserts the robustness
// invariant of the degradation layer:
//
//	faults in up to N projects never change the results of unaffected
//	projects, a panic fails only its own project, and the process never
//	crashes or leaks goroutines.

// referenceAnalysis computes the fault-free ground truth sequentially.
func referenceAnalysis(t testing.TB, seed int64) *corpus.Corpus {
	t.Helper()
	c := paperCorpus(t, seed)
	if err := c.Analyze(quantize.DefaultScheme()); err != nil {
		t.Fatal(err)
	}
	return c
}

// assertUnaffectedIdentical compares every project outside `affected`
// against the fault-free reference, field by field (reflect.DeepEqual on
// Measures — the invariant is byte-identical results, not approximate).
func assertUnaffectedIdentical(t *testing.T, label string, ref, got *corpus.Corpus, affected map[string]bool) {
	t.Helper()
	if ref.Len() != got.Len() {
		t.Fatalf("%s: corpus sizes differ: %d vs %d", label, ref.Len(), got.Len())
	}
	for i := range ref.Projects {
		w, g := ref.Projects[i], got.Projects[i]
		if affected[g.Name] {
			if g.Analyzed {
				t.Errorf("%s: %s failed yet is marked Analyzed", label, g.Name)
			}
			continue
		}
		if !g.Analyzed {
			t.Errorf("%s: %s is unaffected by faults but was not analyzed", label, g.Name)
			continue
		}
		if !reflect.DeepEqual(w.Measures, g.Measures) {
			t.Errorf("%s: %s: measures differ from the fault-free run", label, g.Name)
		}
		if w.Labels != g.Labels {
			t.Errorf("%s: %s: labels differ from the fault-free run", label, g.Name)
		}
		if w.Assigned() != g.Assigned() {
			t.Errorf("%s: %s: assigned pattern differs from the fault-free run", label, g.Name)
		}
	}
}

// checkNoGoroutineLeak polls until the goroutine count returns to (about)
// its baseline — quarantined workers must finish and vanish, not pile up.
func checkNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	const slack = 4 // runtime helpers, test framework timers
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+slack {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d now vs %d at baseline", runtime.NumGoroutine(), baseline)
}

// affectedFrom maps a run's degradation report to the set of lost projects.
func affectedFrom(t *testing.T, stats Stats) map[string]bool {
	t.Helper()
	if stats.Degradation == nil {
		t.Fatal("run produced no degradation report")
	}
	out := map[string]bool{}
	for _, f := range stats.Degradation.Failures {
		out[f.Project] = true
	}
	return out
}

// TestChaosInvariant is the headline chaos property: at several fault
// seeds, with every fault kind armed across the pipeline and cache sites,
// the projects the injector did not take down produce results identical
// to a fault-free run, every loss is classified, and no goroutine leaks.
func TestChaosInvariant(t *testing.T) {
	ref := referenceAnalysis(t, 1)
	faultSeeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		faultSeeds = faultSeeds[:2]
	}
	baseline := runtime.NumGoroutine()
	for _, fseed := range faultSeeds {
		inj := faultinject.New(faultinject.Config{Seed: fseed, Rate: 0.08})
		c := paperCorpus(t, 1)
		stats, err := Run(context.Background(), c, Options{
			CacheDir:       t.TempDir(),
			ProjectTimeout: 30 * time.Second, // generous: only real sticking should trip it
			Fault:          inj,
		})
		affected := affectedFrom(t, stats)
		if len(affected) == 0 && err != nil {
			t.Fatalf("fault seed %d: error with empty report: %v", fseed, err)
		}
		if len(affected) > 0 && err == nil {
			t.Fatalf("fault seed %d: %d failures but nil error", fseed, len(affected))
		}
		if stats.Analyzed+len(affected) != c.Len() {
			t.Errorf("fault seed %d: %d analyzed + %d lost != %d projects",
				fseed, stats.Analyzed, len(affected), c.Len())
		}
		// Every failure must carry a taxonomy kind and the project name.
		for _, f := range stats.Degradation.Failures {
			if f.Kind == "" || f.Project == "" || f.Error == "" {
				t.Errorf("fault seed %d: unclassified failure %+v", fseed, f)
			}
		}
		assertUnaffectedIdentical(t, "chaos", ref, c, affected)
	}
	checkNoGoroutineLeak(t, baseline)
}

// TestChaosPanicIsolation: a worker panic in one project fails only that
// project, with the panic taxonomy, and the process survives.
func TestChaosPanicIsolation(t *testing.T) {
	ref := referenceAnalysis(t, 2)
	inj := faultinject.New(faultinject.Config{
		Seed:  9,
		Rate:  0.15,
		Kinds: []faultinject.Kind{faultinject.KindPanic},
		Sites: []string{"pipeline.parse", "pipeline.assemble", "pipeline.metrics"},
	})
	c := paperCorpus(t, 2)
	stats, err := Run(context.Background(), c, Options{Fault: inj})
	affected := affectedFrom(t, stats)
	if len(affected) == 0 {
		t.Fatal("panic injector took down no project; raise the rate")
	}
	if err == nil {
		t.Fatal("panicking projects must surface as an error")
	}
	for _, f := range stats.Degradation.Failures {
		if f.Kind != FailPanic {
			t.Errorf("%s classified as %q, want %q", f.Project, f.Kind, FailPanic)
		}
		if !strings.Contains(f.Error, "panic") {
			t.Errorf("%s: error does not mention the panic: %s", f.Project, f.Error)
		}
	}
	if !strings.Contains(err.Error(), "panic") {
		t.Errorf("joined error does not mention the panic: %v", err)
	}
	assertUnaffectedIdentical(t, "panic isolation", ref, c, affected)
}

// TestChaosTimeoutQuarantine: a stalled project is abandoned at its
// deadline with the timeout taxonomy, listed as quarantined, never
// committed, and its stray worker eventually exits (no leak).
func TestChaosTimeoutQuarantine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	inj := faultinject.New(faultinject.Config{
		Seed:  3,
		Rate:  1,
		Kinds: []faultinject.Kind{faultinject.KindDelay},
		Sites: []string{"pipeline.assemble"},
		Delay: 400 * time.Millisecond,
	})
	projects := []*corpus.Project{}
	for _, name := range []string{"stall-a", "stall-b", "stall-c"} {
		projects = append(projects, &corpus.Project{Name: name, Repo: goodRepo(name)})
	}
	c := &corpus.Corpus{Projects: projects}
	stats, err := Run(context.Background(), c, Options{ProjectTimeout: 40 * time.Millisecond, Fault: inj})
	if err == nil {
		t.Fatal("stalled projects must surface as an error")
	}
	rep := stats.Degradation
	if len(rep.Failures) != c.Len() {
		t.Fatalf("%d of %d stalled projects failed: %+v", len(rep.Failures), c.Len(), rep)
	}
	for _, f := range rep.Failures {
		if f.Kind != FailTimeout {
			t.Errorf("%s classified as %q, want %q", f.Project, f.Kind, FailTimeout)
		}
	}
	if len(rep.Quarantined) != c.Len() || stats.Quarantined != c.Len() {
		t.Errorf("quarantine list %v (stat %d), want all %d projects",
			rep.Quarantined, stats.Quarantined, c.Len())
	}
	for _, p := range c.Projects {
		if p.Analyzed {
			t.Errorf("%s: timed-out project was committed", p.Name)
		}
	}
	if !strings.Contains(rep.Render(), "quarantined") {
		t.Errorf("report render omits the quarantine list:\n%s", rep.Render())
	}
	checkNoGoroutineLeak(t, baseline)
}

// TestChaosHealthyProjectsSurviveTimeouts: with the watchdog armed and
// stalls injected into a strict subset of projects, the untouched
// projects complete normally.
func TestChaosHealthyProjectsSurviveTimeouts(t *testing.T) {
	// Sites keyed by project name: fire only for the "stall-" projects by
	// picking a rate of 1 on a dedicated site list and distinct naming —
	// the injector hashes (site, key), so choose the subset empirically.
	inj := faultinject.New(faultinject.Config{
		Seed:  11,
		Rate:  0.5,
		Kinds: []faultinject.Kind{faultinject.KindDelay},
		Sites: []string{"pipeline.parse"},
		Delay: 300 * time.Millisecond,
	})
	var projects []*corpus.Project
	stalled := map[string]bool{}
	for i := 0; i < 12; i++ {
		name := "proj-" + string(rune('a'+i))
		projects = append(projects, &corpus.Project{Name: name, Repo: goodRepo(name)})
		if inj.At("pipeline.parse", name) == faultinject.KindDelay {
			stalled[name] = true
		}
	}
	if len(stalled) == 0 || len(stalled) == len(projects) {
		t.Fatalf("need a strict subset stalled, got %d/%d; adjust the seed", len(stalled), len(projects))
	}
	c := &corpus.Corpus{Projects: projects}
	stats, _ := Run(context.Background(), c, Options{ProjectTimeout: 60 * time.Millisecond, Fault: inj})
	for _, p := range c.Projects {
		if stalled[p.Name] && p.Analyzed {
			t.Errorf("%s: stalled project committed", p.Name)
		}
		if !stalled[p.Name] && !p.Analyzed {
			t.Errorf("%s: healthy project lost to a neighbour's stall", p.Name)
		}
	}
	if stats.Analyzed != len(projects)-len(stalled) {
		t.Errorf("analyzed %d, want %d", stats.Analyzed, len(projects)-len(stalled))
	}
}

// TestCacheBitRotAndPartialWrite: flipped bytes and truncated entries in a
// live cache read as misses, and the pipeline recomputes and overwrites
// them with healthy entries — results stay identical throughout.
func TestCacheBitRotAndPartialWrite(t *testing.T) {
	dir := t.TempDir()
	cold := paperCorpus(t, 3)
	if _, err := Run(context.Background(), cold, Options{CacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.sevc"))
	if err != nil || len(entries) < 2 {
		t.Fatalf("need at least 2 cache entries, have %d (err %v)", len(entries), err)
	}
	// Bit-rot: flip one byte in the middle of the first entry.
	rot, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	rot[len(rot)/2] ^= 0x40
	if err := os.WriteFile(entries[0], rot, 0o644); err != nil {
		t.Fatal(err)
	}
	// Partial write: truncate the second entry mid-body.
	if err := os.Truncate(entries[1], 10); err != nil {
		t.Fatal(err)
	}

	warm := paperCorpus(t, 3)
	stats, err := Run(context.Background(), warm, Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheMisses != 2 || stats.CacheCorrupt != 2 {
		t.Errorf("stats = %+v, want exactly 2 misses and 2 corrupt entries", stats)
	}
	if stats.Analyzed != warm.Len() {
		t.Errorf("analyzed %d of %d despite cache corruption", stats.Analyzed, warm.Len())
	}
	seq := referenceAnalysis(t, 3)
	assertSameAnalysis(t, "seq vs bit-rotted cache", seq, warm)

	// The damaged entries were rewritten in place, not moved aside: the
	// directory holds the same entries and nothing else...
	if left, err := os.ReadDir(dir); err != nil || len(left) != len(entries) {
		t.Errorf("cache dir holds %d files after repair, want the %d entries (err %v)", len(left), len(entries), err)
	}
	// ...and a third run hits every one of them.
	again := paperCorpus(t, 3)
	stats, err = Run(context.Background(), again, Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != again.Len() || stats.CacheErrors != 0 {
		t.Errorf("post-repair run: %+v, want %d hits and no errors", stats, again.Len())
	}
}

// TestChaosCacheFaultsNeverLoseProjects: cache-site faults (I/O errors,
// corrupted reads and writes, stalls) degrade to recomputation — no
// project may fail, and results stay identical to the reference.
func TestChaosCacheFaultsNeverLoseProjects(t *testing.T) {
	ref := referenceAnalysis(t, 1)
	inj := faultinject.New(faultinject.Config{
		Seed: 21,
		Rate: 0.30,
		Sites: []string{
			"cache.read", "cache.read.bytes", "cache.write", "cache.write.bytes",
		},
	})
	dir := t.TempDir()
	for pass := 0; pass < 2; pass++ { // cold then warm
		c := paperCorpus(t, 1)
		stats, err := Run(context.Background(), c, Options{CacheDir: dir, Fault: inj})
		if err != nil {
			t.Fatalf("pass %d: cache faults failed the run: %v", pass, err)
		}
		if stats.Analyzed != c.Len() {
			t.Fatalf("pass %d: analyzed %d of %d", pass, stats.Analyzed, c.Len())
		}
		assertUnaffectedIdentical(t, "cache chaos", ref, c, nil)
		if pass == 1 && stats.Degradation.CacheIncidents == 0 {
			t.Error("warm pass reports no cache incidents; injector misconfigured?")
		}
	}
}

// TestChaosFailFast: fault injection composes with fail-fast cancellation
// without deadlock or crash.
func TestChaosFailFast(t *testing.T) {
	inj := faultinject.New(faultinject.Config{
		Seed:  5,
		Rate:  0.2,
		Kinds: []faultinject.Kind{faultinject.KindErr, faultinject.KindPanic},
		Sites: []string{"pipeline.parse"},
	})
	c := paperCorpus(t, 1)
	stats, err := Run(context.Background(), c, Options{FailFast: true, Fault: inj})
	if err == nil {
		t.Skip("no project faulted at this seed")
	}
	if stats.Failed == 0 {
		t.Error("error without recorded failure")
	}
}

// TestChaosDeterministicReport: the same fault seed yields the same
// degradation report (same projects lost, same kinds) run over run.
func TestChaosDeterministicReport(t *testing.T) {
	newRun := func() Stats {
		inj := faultinject.New(faultinject.Config{Seed: 13, Rate: 0.1})
		c := paperCorpus(t, 1)
		stats, _ := Run(context.Background(), c, Options{Fault: inj})
		return stats
	}
	a, b := newRun(), newRun()
	if len(a.Degradation.Failures) != len(b.Degradation.Failures) {
		t.Fatalf("failure counts differ: %d vs %d",
			len(a.Degradation.Failures), len(b.Degradation.Failures))
	}
	for i := range a.Degradation.Failures {
		fa, fb := a.Degradation.Failures[i], b.Degradation.Failures[i]
		if fa.Project != fb.Project || fa.Kind != fb.Kind {
			t.Errorf("failure %d differs: %+v vs %+v", i, fa, fb)
		}
	}
}

// TestDegradationReportShape covers the report accessors and rendering.
func TestDegradationReportShape(t *testing.T) {
	var nilRep *DegradationReport
	if nilRep.Degraded() || nilRep.LossFraction() != 0 {
		t.Error("nil report must read as healthy")
	}
	rep := &DegradationReport{
		Projects: 4,
		Analyzed: 2,
		Failures: []ProjectFailure{
			{Project: "a", Kind: FailParse, Error: "bad ddl"},
			{Project: "b", Kind: FailTimeout, Error: "deadline\nstack"},
		},
		ByKind:      map[FailureKind]int{FailParse: 1, FailTimeout: 1},
		Quarantined: []string{"b"},
	}
	if !rep.Degraded() || rep.LossFraction() != 0.5 {
		t.Errorf("Degraded=%v LossFraction=%v", rep.Degraded(), rep.LossFraction())
	}
	out := rep.Render()
	for _, want := range []string{"2 of 4", "parse", "timeout", "[timeout] b", "quarantined", "..."} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	healthy := &DegradationReport{Projects: 3, Analyzed: 3}
	if !strings.Contains(healthy.Render(), "none") {
		t.Errorf("healthy render: %s", healthy.Render())
	}
}

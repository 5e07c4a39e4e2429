package pipeline

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"
	"time"

	"schemaevo/internal/corpus"
	"schemaevo/internal/faultinject"
	"schemaevo/internal/quantize"
	"schemaevo/internal/telemetry"
)

// TestClampWorkers pins the shard-count resolution: an explicit count
// wins, <= 0 selects GOMAXPROCS, and the result is clamped to the
// project count.
func TestClampWorkers(t *testing.T) {
	gmp := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		name   string
		shards int
		jobs   int
		want   int
	}{
		{"explicit", 3, 100, 3},
		{"explicit-clamped-to-jobs", 64, 2, 2},
		{"default-gomaxprocs", 0, 1 << 20, gmp},
		{"single-project-degenerates", 16, 1, 1},
	} {
		if got := clampWorkers(tc.shards, tc.jobs); got != tc.want {
			t.Errorf("%s: clampWorkers = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestRunBalancesShards pins dynamic load balancing: every project name
// FNV-1a-hashes to the same one of two buckets, so a static name→shard
// assignment would leave one shard idle for the whole run. With every
// parse stalled, both shards must be inside the parse stage at once.
func TestRunBalancesShards(t *testing.T) {
	var projects []*corpus.Project
	for i := 0; len(projects) < 6; i++ {
		name := fmt.Sprintf("proj-%d", i)
		h := fnv.New64a()
		h.Write([]byte(name))
		if h.Sum64()%2 == 0 {
			projects = append(projects, &corpus.Project{Name: name, Repo: goodRepo(name)})
		}
	}
	inj := faultinject.New(faultinject.Config{
		Seed:  1,
		Rate:  1,
		Kinds: []faultinject.Kind{faultinject.KindDelay},
		Sites: []string{"pipeline.parse"},
		Delay: 20 * time.Millisecond,
	})
	tel := telemetry.New()
	c := &corpus.Corpus{Projects: projects}
	stats, err := Run(context.Background(), c, Options{Shards: 2, Fault: inj, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shards != 2 || stats.Analyzed != len(projects) {
		t.Fatalf("stats = %+v, want 2 shards and %d analyzed", stats, len(projects))
	}
	parse := tel.Snapshot().Stages[0]
	if parse.Name != "parse" || parse.MaxOccupancy != 2 {
		t.Errorf("stage %q max occupancy = %d, want parse at 2 (both shards busy)", parse.Name, parse.MaxOccupancy)
	}
}

// TestPipelineSingleShardSequentialPath is the satellite bugfix pin: a
// run with one shard (explicitly, or by default on a one-core box) must
// select the sequential execution path — Stats reports exactly one
// shard, and the results are identical to the sequential Analyze. The
// throughput side of the pin (pipeline >= sequential at GOMAXPROCS=1) is
// enforced by cmd/benchpipe -check, which CI runs at GOMAXPROCS 1 and 2.
func TestPipelineSingleShardSequentialPath(t *testing.T) {
	scheme := quantize.DefaultScheme()
	seq := paperCorpus(t, 11)
	if err := seq.Analyze(scheme); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		opts       Options
		gomaxprocs int
	}{
		{Options{Shards: 1}, 0},
		{Options{}, 1},
	} {
		piped := paperCorpus(t, 11)
		prev := runtime.GOMAXPROCS(tc.gomaxprocs) // 0 leaves it unchanged
		stats, err := Run(context.Background(), piped, tc.opts)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Shards != 1 {
			t.Fatalf("opts %+v (GOMAXPROCS setting %d): ran with %d shards, want the sequential path (1)",
				tc.opts, tc.gomaxprocs, stats.Shards)
		}
		assertSameAnalysis(t, "seq vs single-shard pipeline", seq, piped)
	}
}

// TestPipelineExplicitShards pins that Options.Shards drives the run and
// preserves equivalence at several counts (including counts above the
// core count — shards are goroutines, not cores).
func TestPipelineExplicitShards(t *testing.T) {
	scheme := quantize.DefaultScheme()
	seq := paperCorpus(t, 12)
	if err := seq.Analyze(scheme); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3, 8} {
		piped := paperCorpus(t, 12)
		stats, err := Run(context.Background(), piped, Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		want := shards
		if n := piped.Len(); want > n {
			want = n
		}
		if stats.Shards != want {
			t.Fatalf("shards=%d: stats.Shards = %d, want %d", shards, stats.Shards, want)
		}
		if stats.Analyzed != piped.Len() {
			t.Fatalf("shards=%d: analyzed %d of %d", shards, stats.Analyzed, piped.Len())
		}
		assertSameAnalysis(t, "seq vs sharded pipeline", seq, piped)
	}
}

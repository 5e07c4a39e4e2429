// Command benchpipe measures the analysis-pipeline throughput on the
// calibrated 151-project corpus and writes the results as JSON, so every
// PR leaves a comparable performance record behind.
//
// Four variants are timed (best of -runs repetitions each, corpus
// generation excluded):
//
//   - sequential:    Corpus.Analyze, one project at a time
//   - pipeline:      pipeline.Run at GOMAXPROCS shards, no cache
//   - pipeline-cold: pipeline.Run with an empty result cache
//   - pipeline-warm: pipeline.Run with a fully warm result cache
//
// Beside wall time, every variant records its allocation trajectory
// (allocs/project and bytes/project, measured over the timed runs), so the
// BENCH artifact captures memory cost, not just speed.
//
// Beyond the four ambient-GOMAXPROCS variants, a scaling matrix re-times
// the sequential and pipeline variants at each GOMAXPROCS value of
// -matrix (default 1,2,4,8, adjusted in-process), recording the
// pipeline-vs-sequential ratio per core count — the artifact therefore
// shows whether shard parallelism pays at every width, not just the
// recording machine's.
//
// Usage:
//
//	benchpipe                      # seed 1, 3 runs, writes BENCH_pipeline.json
//	benchpipe -seed 7 -runs 5 -out bench.json
//	benchpipe -matrix 1,2          # trim the GOMAXPROCS scaling matrix
//	benchpipe -telemetry           # run with telemetry collection enabled
//	benchpipe -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	benchpipe -check               # regression gate against BENCH_pipeline.json
//
// With -telemetry every timed variant carries a live telemetry collector,
// so the JSON additionally records each variant's per-stage breakdown —
// and comparing best_ns against a plain run measures the telemetry
// overhead itself (the CI smoke does exactly that).
//
// With -check, no JSON is written: the regression gate re-measures and
// fails (non-zero exit) when any of the following hold, each with the
// -tolerance fraction (default 10%) of slack:
//
//   - sequential throughput dropped below the committed baseline, or its
//     allocs/project grew (the original gate);
//   - the pipeline variant is slower than sequential at the current
//     GOMAXPROCS — the shard-per-core design makes the pipeline a
//     superset of the sequential loop, so it may never underperform it
//     (CI runs this gate at GOMAXPROCS 1 and 2);
//   - the auto-detecting pipeline over any dialect-restyled corpus falls
//     more than the tolerance below the generic pipeline's bytes/sec
//     (the median ratio over alternating generic/dialect pairs);
//   - the warm-cache path allocates more per project than the cold path —
//     decode must stay cheaper than recomputation;
//   - a committed matrix row already records pipeline < sequential
//     (oversubscribed rows, where the width exceeded the recording
//     machine's cores, are informational only).
//
// This is the CI bench-regression / bench-matrix gate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"schemaevo/internal/corpus"
	"schemaevo/internal/pipeline"
	"schemaevo/internal/quantize"
	"schemaevo/internal/synth"
	"schemaevo/internal/telemetry"
)

// result is one timed variant in the emitted JSON.
type result struct {
	Name           string  `json:"name"`
	BestNs         int64   `json:"best_ns"`
	BestMs         float64 `json:"best_ms"`
	ProjectsPerSec float64 `json:"projects_per_sec"`
	// SpeedupVsSequential is wall-clock sequential time over this
	// variant's time (higher is better; 1.0 for sequential itself).
	SpeedupVsSequential float64 `json:"speedup_vs_sequential"`
	// CPUNs and ProjectsPerCPUSec are the best run measured in process CPU
	// time (user+system) instead of wall clock. CPU time is insensitive to
	// co-tenant load on shared machines, so the -check regression gate
	// compares these when the baseline records them. Zero when the platform
	// cannot measure CPU time.
	CPUNs             int64   `json:"cpu_ns,omitempty"`
	ProjectsPerCPUSec float64 `json:"projects_per_cpu_sec,omitempty"`
	// AllocsPerProject and BytesPerProject are the heap allocation count
	// and allocated bytes per analyzed project, averaged over the timed
	// runs (corpus generation excluded).
	AllocsPerProject float64 `json:"allocs_per_project"`
	BytesPerProject  float64 `json:"bytes_per_project"`
	// CacheHitRate is hits/(hits+misses) of the variant's last timed run
	// (0 for the cacheless variants).
	CacheHitRate float64 `json:"cache_hit_rate"`
	// StageBreakdown is the per-stage telemetry of the variant's last
	// timed run; present only with -telemetry.
	StageBreakdown []telemetry.StageReport `json:"stage_breakdown,omitempty"`
}

// matrixRow is one GOMAXPROCS width of the scaling matrix: the
// sequential and pipeline variants re-timed with the scheduler width
// pinned in-process. PipelineVsSequential > 1 means the shard-per-core
// pipeline beat the plain loop at that width; the -check gate fails if a
// committed row ever records the pipeline losing.
type matrixRow struct {
	GOMAXPROCS               int     `json:"gomaxprocs"`
	SequentialProjectsPerSec float64 `json:"sequential_projects_per_sec"`
	PipelineProjectsPerSec   float64 `json:"pipeline_projects_per_sec"`
	PipelineVsSequential     float64 `json:"pipeline_vs_sequential"`
	PipelineAllocsPerProject float64 `json:"pipeline_allocs_per_project"`
	// Oversubscribed marks rows whose width exceeds the recording
	// machine's physical core count: the shards time-slice one CPU, so
	// the ratio shows scheduling overhead, not what a machine of that
	// width would do. The -check gate treats such rows as informational.
	Oversubscribed bool `json:"oversubscribed,omitempty"`
}

// dialectRow times the cacheless pipeline with per-file dialect
// auto-detection over the corpus restyled in one concrete SQL dialect.
// The restyled corpora carry more raw DDL text than the generic one
// (quoting, headers, engine clauses), so raw duration ratios conflate
// input size with adapter overhead. VsGenericPipeline is therefore
// byte-normalized: dialect bytes/sec over generic bytes/sec, both timed
// in the same process. The -check gate bounds how far below 1.0 it may
// fall, so detection plus adapter dispatch can never silently grow into
// a per-byte cost.
type dialectRow struct {
	Dialect           string  `json:"dialect"`
	ProjectsPerSec    float64 `json:"projects_per_sec"`
	MBPerSec          float64 `json:"mb_per_sec"`
	AllocsPerProject  float64 `json:"allocs_per_project"`
	VsGenericPipeline float64 `json:"vs_generic_pipeline"`
}

// report is the full BENCH_pipeline.json document.
type report struct {
	GeneratedBy string         `json:"generated_by"`
	Date        string         `json:"date"`
	Seed        int64          `json:"seed"`
	Projects    int            `json:"projects"`
	Cores       int            `json:"cores"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	Runs        int            `json:"runs"`
	Telemetry   bool           `json:"telemetry"`
	Results     []result       `json:"results"`
	Matrix      []matrixRow    `json:"matrix,omitempty"`
	Dialects    []dialectRow   `json:"dialects,omitempty"`
	WarmStats   pipeline.Stats `json:"warm_cache_stats"`
	Note        string         `json:"note,omitempty"`
	// Previous summarizes the artifact this run replaced (same file, prior
	// recording), so the before/after trajectory of a performance change is
	// readable from the artifact alone.
	Previous *priorSummary `json:"previous,omitempty"`
}

// priorResult is the headline slice of one replaced variant entry.
type priorResult struct {
	Name              string  `json:"name"`
	ProjectsPerSec    float64 `json:"projects_per_sec"`
	ProjectsPerCPUSec float64 `json:"projects_per_cpu_sec,omitempty"`
	AllocsPerProject  float64 `json:"allocs_per_project,omitempty"`
}

// priorSummary preserves the replaced artifact's headline numbers.
type priorSummary struct {
	Date    string        `json:"date"`
	Seed    int64         `json:"seed"`
	Results []priorResult `json:"results"`
}

// summarizePrior reads the artifact about to be replaced and trims it to
// its headline numbers; a missing or unreadable file yields nil.
func summarizePrior(path string) *priorSummary {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var old report
	if err := json.Unmarshal(data, &old); err != nil || len(old.Results) == 0 {
		return nil
	}
	p := &priorSummary{Date: old.Date, Seed: old.Seed}
	for _, r := range old.Results {
		p.Results = append(p.Results, priorResult{
			Name:              r.Name,
			ProjectsPerSec:    r.ProjectsPerSec,
			ProjectsPerCPUSec: r.ProjectsPerCPUSec,
			AllocsPerProject:  r.AllocsPerProject,
		})
	}
	return p
}

func main() {
	var (
		seed       = flag.Int64("seed", 1, "corpus generator seed")
		runs       = flag.Int("runs", 3, "repetitions per variant (best run is reported)")
		out        = flag.String("out", "BENCH_pipeline.json", "output JSON path")
		tele       = flag.Bool("telemetry", false, "attach a telemetry collector to every timed run (records stage breakdowns; compare best_ns with a plain run to measure overhead)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the timed variants to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (taken after the timed variants) to this file")
		check      = flag.Bool("check", false, "regression gate: re-measure and fail on any throughput/allocation regression vs the -out baseline")
		tolerance  = flag.Float64("tolerance", 0.10, "with -check, the fractional regression allowed before failing")
		matrix     = flag.String("matrix", "1,2,4,8", "comma-separated GOMAXPROCS widths for the scaling matrix (empty disables)")
	)
	flag.Parse()
	if *runs < 1 {
		fmt.Fprintln(os.Stderr, "benchpipe: -runs must be at least 1")
		os.Exit(1)
	}
	widths, err := parseMatrix(*matrix)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpipe:", err)
		os.Exit(1)
	}
	if *check {
		if err := runCheck(*out, *runs, *tolerance); err != nil {
			fmt.Fprintln(os.Stderr, "benchpipe:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*seed, *runs, *out, *tele, *cpuprofile, *memprofile, widths); err != nil {
		fmt.Fprintln(os.Stderr, "benchpipe:", err)
		os.Exit(1)
	}
}

// parseMatrix turns the -matrix flag into GOMAXPROCS widths.
func parseMatrix(s string) ([]int, error) {
	var widths []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		g, err := strconv.Atoi(part)
		if err != nil || g < 1 {
			return nil, fmt.Errorf("bad -matrix width %q: want positive integers", part)
		}
		widths = append(widths, g)
	}
	return widths, nil
}

// freshCorpus regenerates the corpus; analysis mutates projects, so every
// timed run gets its own copy (generation time is excluded from timings).
func freshCorpus(seed int64) (*corpus.Corpus, error) {
	return synth.PaperCorpus(seed)
}

// corpusGen produces a fresh corpus per timed run. genericGen is the
// default; dialect variants time the same seed's corpus restyled in a
// concrete SQL dialect.
type corpusGen func() (*corpus.Corpus, error)

func genericGen(seed int64) corpusGen {
	return func() (*corpus.Corpus, error) { return freshCorpus(seed) }
}

func dialectGen(seed int64, name string) corpusGen {
	return func() (*corpus.Corpus, error) { return synth.PaperCorpusDialect(seed, name) }
}

// variantOutcome carries what one variant's last timed run observed.
type variantOutcome struct {
	stats pipeline.Stats
	tel   *telemetry.Collector
	// allocsPerRun and bytesPerRun are the mean heap allocations and bytes
	// per timed run (mallocs/total-alloc deltas around fn only).
	allocsPerRun float64
	bytesPerRun  float64
}

// measure times fn over runs repetitions of the corpus analysis and
// returns the best wall-clock duration, the best CPU-time duration (zero
// when unmeasurable), and the last run's outcome. With withTel, every run
// carries a fresh telemetry collector (its cost is thus included in the
// timing — the point of the overhead comparison).
func measure(gen corpusGen, runs int, withTel bool, fn func(*corpus.Corpus, *telemetry.Collector) (pipeline.Stats, error)) (time.Duration, time.Duration, variantOutcome, error) {
	best, bestCPU := time.Duration(0), time.Duration(0)
	var last variantOutcome
	var totalAllocs, totalBytes uint64
	var ms0, ms1 runtime.MemStats
	for i := 0; i < runs; i++ {
		c, err := gen()
		if err != nil {
			return 0, 0, last, err
		}
		if withTel {
			last.tel = telemetry.New()
		}
		runtime.ReadMemStats(&ms0)
		cpu0 := processCPUTime()
		start := time.Now()
		if last.stats, err = fn(c, last.tel); err != nil {
			return 0, 0, last, err
		}
		elapsed := time.Since(start)
		cpu := processCPUTime() - cpu0
		runtime.ReadMemStats(&ms1)
		totalAllocs += ms1.Mallocs - ms0.Mallocs
		totalBytes += ms1.TotalAlloc - ms0.TotalAlloc
		if best == 0 || elapsed < best {
			best = elapsed
		}
		if cpu > 0 && (bestCPU == 0 || cpu < bestCPU) {
			bestCPU = cpu
		}
	}
	last.allocsPerRun = float64(totalAllocs) / float64(runs)
	last.bytesPerRun = float64(totalBytes) / float64(runs)
	return best, bestCPU, last, nil
}

// sequentialFn and pipelineFn are the two variants the scaling matrix
// and the -check gate re-time (cacheless, no telemetry).
func sequentialFn(c *corpus.Corpus, _ *telemetry.Collector) (pipeline.Stats, error) {
	return pipeline.Stats{}, c.Analyze(quantize.DefaultScheme())
}

func pipelineFn(c *corpus.Corpus, tel *telemetry.Collector) (pipeline.Stats, error) {
	return pipeline.Run(context.Background(), c, pipeline.Options{Telemetry: tel})
}

// autoPipelineFn is the pipeline with per-file dialect auto-detection —
// the configuration the dialect rows time.
func autoPipelineFn(c *corpus.Corpus, tel *telemetry.Collector) (pipeline.Stats, error) {
	return pipeline.Run(context.Background(), c, pipeline.Options{Dialect: "auto", Telemetry: tel})
}

// benchDialects are the concrete dialect corpora timed per artifact.
var benchDialects = []string{"mysql", "postgres", "sqlite"}

// corpusDDLBytes sums the raw DDL text the pipeline lexes for one
// corpus: every version of every DDL file of every project.
func corpusDDLBytes(c *corpus.Corpus) int {
	total := 0
	for _, p := range c.Projects {
		for _, path := range p.Repo.DDLPaths() {
			for _, fv := range p.Repo.FileHistory(path) {
				total += len(fv.Content)
			}
		}
	}
	return total
}

// measureDialects times the auto-detecting cacheless pipeline over the
// corpus restyled in each concrete dialect against the generic pipeline,
// in runs alternating pairs (generic first on even pairs, the dialect on
// odd), so both sides of a pair see the same moment of the machine.
// VsGenericPipeline is the median of the per-pair byte-normalized ratios
// (see dialectRow); throughput is the dialect's best run.
func measureDialects(seed int64, runs, n int) ([]dialectRow, error) {
	generic, err := freshCorpus(seed)
	if err != nil {
		return nil, err
	}
	genericBytes := float64(corpusDDLBytes(generic))
	var rows []dialectRow
	for _, name := range benchDialects {
		c, err := synth.PaperCorpusDialect(seed, name)
		if err != nil {
			return nil, fmt.Errorf("dialect %s: %w", name, err)
		}
		bytes := float64(corpusDDLBytes(c))
		var best time.Duration
		var allocs float64
		ratios := make([]float64, runs)
		for i := range ratios {
			var g, d time.Duration
			var oc variantOutcome
			for k := i; k < i+2; k++ {
				var err error
				if k%2 == 0 {
					g, _, _, err = measure(genericGen(seed), 1, false, pipelineFn)
				} else {
					d, _, oc, err = measure(dialectGen(seed, name), 1, false, autoPipelineFn)
				}
				if err != nil {
					return nil, fmt.Errorf("dialect %s: %w", name, err)
				}
			}
			ratios[i] = (bytes / d.Seconds()) / (genericBytes / g.Seconds())
			if best == 0 || d < best {
				best = d
			}
			allocs += oc.allocsPerRun
		}
		sort.Float64s(ratios)
		row := dialectRow{
			Dialect:           name,
			ProjectsPerSec:    float64(n) / best.Seconds(),
			MBPerSec:          bytes / best.Seconds() / 1e6,
			AllocsPerProject:  allocs / float64(runs) / float64(n),
			VsGenericPipeline: (ratios[(runs-1)/2] + ratios[runs/2]) / 2,
		}
		rows = append(rows, row)
		fmt.Printf("dialect %-9s %12v  (%.0f projects/sec, %.1f MB/s, median %.2fx of generic bytes/sec over %d pairs, range %.2f–%.2f)\n",
			name, best, row.ProjectsPerSec, row.MBPerSec, row.VsGenericPipeline, runs, ratios[0], ratios[runs-1])
	}
	return rows, nil
}

// measureMatrix re-times the sequential and pipeline variants with
// GOMAXPROCS pinned to each requested width (restored afterwards). The
// pipeline's shard count follows GOMAXPROCS, so each row shows what a
// machine of that width would see — modulo oversubscription when the
// width exceeds the physical core count, which still exercises the
// scheduling but cannot show real speedup.
func measureMatrix(seed int64, runs, n int, widths []int) ([]matrixRow, error) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var rows []matrixRow
	for _, g := range widths {
		runtime.GOMAXPROCS(g)
		seqD, _, _, err := measure(genericGen(seed), runs, false, sequentialFn)
		if err != nil {
			return nil, fmt.Errorf("matrix sequential at GOMAXPROCS=%d: %w", g, err)
		}
		pipeD, _, pipeOC, err := measure(genericGen(seed), runs, false, pipelineFn)
		if err != nil {
			return nil, fmt.Errorf("matrix pipeline at GOMAXPROCS=%d: %w", g, err)
		}
		row := matrixRow{
			GOMAXPROCS:               g,
			SequentialProjectsPerSec: float64(n) / seqD.Seconds(),
			PipelineProjectsPerSec:   float64(n) / pipeD.Seconds(),
			PipelineVsSequential:     seqD.Seconds() / pipeD.Seconds(),
			PipelineAllocsPerProject: pipeOC.allocsPerRun / float64(n),
			Oversubscribed:           g > runtime.NumCPU(),
		}
		rows = append(rows, row)
		note := ""
		if row.Oversubscribed {
			note = "  [oversubscribed]"
		}
		fmt.Printf("matrix GOMAXPROCS=%d: sequential %.0f projects/sec, pipeline %.0f (%.2fx)%s\n",
			g, row.SequentialProjectsPerSec, row.PipelineProjectsPerSec, row.PipelineVsSequential, note)
	}
	return rows, nil
}

func run(seed int64, runs int, out string, withTel bool, cpuprofile, memprofile string, widths []int) error {
	probe, err := freshCorpus(seed)
	if err != nil {
		return err
	}
	n := probe.Len()
	rep := report{
		GeneratedBy: "cmd/benchpipe",
		Date:        time.Now().UTC().Format("2006-01-02"),
		Seed:        seed,
		Projects:    n,
		Cores:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Runs:        runs,
		Telemetry:   withTel,
	}
	if rep.Cores < 4 {
		rep.Note = fmt.Sprintf(
			"measured on %d core(s): shard parallelism cannot exceed 1x here; the warm-cache variant shows the caching win",
			rep.Cores)
	}

	cacheRoot, err := os.MkdirTemp("", "benchpipe-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cacheRoot)
	warmDir := filepath.Join(cacheRoot, "warm")

	variants := []struct {
		name string
		fn   func(*corpus.Corpus, *telemetry.Collector) (pipeline.Stats, error)
	}{
		{"sequential", sequentialFn},
		{"pipeline", pipelineFn},
		{"pipeline-cold", func(c *corpus.Corpus, tel *telemetry.Collector) (pipeline.Stats, error) {
			dir, err := os.MkdirTemp(cacheRoot, "cold-")
			if err != nil {
				return pipeline.Stats{}, err
			}
			return pipeline.Run(context.Background(), c, pipeline.Options{CacheDir: dir, Telemetry: tel})
		}},
		{"pipeline-warm", func(c *corpus.Corpus, tel *telemetry.Collector) (pipeline.Stats, error) {
			return pipeline.Run(context.Background(), c, pipeline.Options{CacheDir: warmDir, Telemetry: tel})
		}},
	}

	// Prewarm the warm-cache directory once, outside the timings.
	prewarm, err := freshCorpus(seed)
	if err != nil {
		return err
	}
	if _, err := pipeline.Run(context.Background(), prewarm, pipeline.Options{CacheDir: warmDir}); err != nil {
		return err
	}

	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	durations := map[string]time.Duration{}
	cpuDurations := map[string]time.Duration{}
	outcomes := map[string]variantOutcome{}
	for _, v := range variants {
		d, cpu, oc, err := measure(genericGen(seed), runs, withTel, v.fn)
		if err != nil {
			return fmt.Errorf("%s: %w", v.name, err)
		}
		durations[v.name] = d
		cpuDurations[v.name] = cpu
		outcomes[v.name] = oc
		fmt.Printf("%-14s %12v  (%.0f projects/sec, %.0f allocs/project)\n",
			v.name, d, float64(n)/d.Seconds(), oc.allocsPerRun/float64(n))
	}

	if memprofile != "" {
		f, err := os.Create(memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			return err
		}
	}

	if len(widths) > 0 {
		if rep.Matrix, err = measureMatrix(seed, runs, n, widths); err != nil {
			return err
		}
	}

	if rep.Dialects, err = measureDialects(seed, runs, n); err != nil {
		return err
	}

	seq := durations["sequential"]
	for _, v := range variants {
		d := durations[v.name]
		oc := outcomes[v.name]
		r := result{
			Name:                v.name,
			BestNs:              d.Nanoseconds(),
			BestMs:              float64(d.Nanoseconds()) / 1e6,
			ProjectsPerSec:      float64(n) / d.Seconds(),
			SpeedupVsSequential: seq.Seconds() / d.Seconds(),
			AllocsPerProject:    oc.allocsPerRun / float64(n),
			BytesPerProject:     oc.bytesPerRun / float64(n),
		}
		if cpu := cpuDurations[v.name]; cpu > 0 {
			r.CPUNs = cpu.Nanoseconds()
			r.ProjectsPerCPUSec = float64(n) / cpu.Seconds()
		}
		if probes := oc.stats.CacheHits + oc.stats.CacheMisses; probes > 0 {
			r.CacheHitRate = float64(oc.stats.CacheHits) / float64(probes)
		}
		if snap := oc.tel.Snapshot(); snap != nil {
			r.StageBreakdown = snap.Stages
		}
		rep.Results = append(rep.Results, r)
	}

	// Record the warm-cache hit counters as proof the cache short-circuits
	// recomputation.
	final, err := freshCorpus(seed)
	if err != nil {
		return err
	}
	rep.WarmStats, err = pipeline.Run(context.Background(), final, pipeline.Options{CacheDir: warmDir})
	if err != nil {
		return err
	}

	rep.Previous = summarizePrior(out)
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s (warm cache: %d/%d hits)\n", out, rep.WarmStats.CacheHits, rep.WarmStats.Projects)
	return nil
}

// runCheck is the CI regression gate. It re-measures on the baseline's
// seed and enforces, each with the tolerance fraction of slack:
//
//  1. sequential throughput and allocs/project vs the committed baseline;
//  2. pipeline >= sequential at the current GOMAXPROCS (the shard-per-core
//     pipeline degenerates to the sequential loop at one shard, so losing
//     to it is a bug, not a trade-off);
//  3. the auto-detecting pipeline over each dialect-restyled corpus stays
//     within the tolerance of the generic pipeline's bytes/sec (median
//     of byte-normalized ratios over alternating in-process pairs);
//  4. warm-cache allocs/project <= cold (decode must stay cheaper than
//     recomputation);
//  5. no committed non-oversubscribed matrix row records pipeline <
//     sequential (static check of the artifact itself).
func runCheck(baselinePath string, runs int, tolerance float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", baselinePath, err)
	}
	var baseSeq *result
	for i := range base.Results {
		if base.Results[i].Name == "sequential" {
			baseSeq = &base.Results[i]
		}
	}
	if baseSeq == nil {
		return fmt.Errorf("baseline %s has no sequential entry", baselinePath)
	}

	probe, err := freshCorpus(base.Seed)
	if err != nil {
		return err
	}
	n := probe.Len()
	d, cpu, oc, err := measure(genericGen(base.Seed), runs, false, sequentialFn)
	if err != nil {
		return err
	}
	// Prefer CPU-time throughput when both the baseline and this machine
	// measure it: wall clock on shared CI runners swings with co-tenant
	// load, while CPU seconds per project track only the code.
	gotPPS := float64(n) / d.Seconds()
	basePPS, clock := baseSeq.ProjectsPerSec, "wall"
	if baseSeq.ProjectsPerCPUSec > 0 && cpu > 0 {
		gotPPS = float64(n) / cpu.Seconds()
		basePPS, clock = baseSeq.ProjectsPerCPUSec, "cpu"
	}
	gotAllocs := oc.allocsPerRun / float64(n)
	fmt.Printf("sequential (%s clock): baseline %.0f projects/sec, now %.0f (%.2fx); baseline %.0f allocs/project, now %.0f\n",
		clock, basePPS, gotPPS, gotPPS/basePPS, baseSeq.AllocsPerProject, gotAllocs)
	if gotPPS < basePPS*(1-tolerance) {
		return fmt.Errorf("throughput regression: %.0f projects/sec (%s clock) is more than %.0f%% below the baseline %.0f",
			gotPPS, clock, tolerance*100, basePPS)
	}
	// Allocation budgets only gate once the baseline records them (older
	// artifacts carry zero); CPU-noise tolerance applies equally.
	if baseSeq.AllocsPerProject > 0 && gotAllocs > baseSeq.AllocsPerProject*(1+tolerance) {
		return fmt.Errorf("allocation regression: %.0f allocs/project is more than %.0f%% above the baseline %.0f",
			gotAllocs, tolerance*100, baseSeq.AllocsPerProject)
	}

	// Gate 2: the pipeline may not lose to the sequential loop at this
	// machine's GOMAXPROCS. Wall clock on both sides of one process, so
	// co-tenant noise largely cancels.
	pipeD, _, _, err := measure(genericGen(base.Seed), runs, false, pipelineFn)
	if err != nil {
		return err
	}
	pipeVsSeq := d.Seconds() / pipeD.Seconds()
	fmt.Printf("pipeline vs sequential at GOMAXPROCS=%d: %.2fx\n", runtime.GOMAXPROCS(0), pipeVsSeq)
	if pipeVsSeq < 1-tolerance {
		return fmt.Errorf("pipeline regression: %.2fx of sequential at GOMAXPROCS=%d (must stay >= %.2f)",
			pipeVsSeq, runtime.GOMAXPROCS(0), 1-tolerance)
	}

	// Gate 3: the auto-detecting pipeline over each dialect corpus may not
	// fall below the generic pipeline's bytes/sec by more than the
	// tolerance. The ratio is byte-normalized and the median over
	// alternating generic/dialect pairs timed back to back, so machine
	// speed and the dialect corpora's honest size delta cancel and drift
	// between passes mostly does — what remains is detection plus adapter
	// dispatch, bounded wherever the gate runs. Baselines without dialect
	// rows predate the gate; the re-measurement still applies.
	dialectFloor := 1 - tolerance
	dialectRows, err := measureDialects(base.Seed, runs, n)
	if err != nil {
		return err
	}
	for _, row := range dialectRows {
		if row.VsGenericPipeline < dialectFloor {
			return fmt.Errorf("dialect regression: %s corpus runs at %.2fx of the generic pipeline's bytes/sec (must stay >= %.2f)",
				row.Dialect, row.VsGenericPipeline, dialectFloor)
		}
	}

	// Gate 4: warm-cache decode must allocate no more per project than
	// cold recomputation. Cold runs get fresh directories; the warm run
	// hits a directory prewarmed outside the measurement.
	cacheRoot, err := os.MkdirTemp("", "benchpipe-check-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cacheRoot)
	_, _, coldOC, err := measure(genericGen(base.Seed), runs, false, func(c *corpus.Corpus, _ *telemetry.Collector) (pipeline.Stats, error) {
		dir, err := os.MkdirTemp(cacheRoot, "cold-")
		if err != nil {
			return pipeline.Stats{}, err
		}
		return pipeline.Run(context.Background(), c, pipeline.Options{CacheDir: dir})
	})
	if err != nil {
		return err
	}
	warmDir := filepath.Join(cacheRoot, "warm")
	prewarm, err := freshCorpus(base.Seed)
	if err != nil {
		return err
	}
	if _, err := pipeline.Run(context.Background(), prewarm, pipeline.Options{CacheDir: warmDir}); err != nil {
		return err
	}
	_, _, warmOC, err := measure(genericGen(base.Seed), runs, false, func(c *corpus.Corpus, _ *telemetry.Collector) (pipeline.Stats, error) {
		return pipeline.Run(context.Background(), c, pipeline.Options{CacheDir: warmDir})
	})
	if err != nil {
		return err
	}
	if warmOC.stats.CacheHits != n {
		return fmt.Errorf("warm run hit the cache for %d of %d projects", warmOC.stats.CacheHits, n)
	}
	coldAllocs := coldOC.allocsPerRun / float64(n)
	warmAllocs := warmOC.allocsPerRun / float64(n)
	fmt.Printf("allocs/project: cold %.0f, warm %.0f (%.2fx)\n", coldAllocs, warmAllocs, warmAllocs/coldAllocs)
	if warmAllocs > coldAllocs*(1+tolerance) {
		return fmt.Errorf("warm-cache allocation regression: %.0f allocs/project warm vs %.0f cold — decode is allocating more than recomputation",
			warmAllocs, coldAllocs)
	}

	// Gate 5: the committed artifact itself may not record a width where
	// the pipeline loses to the sequential loop. Oversubscribed rows
	// (width beyond the recording machine's cores) measure scheduler
	// thrash, not real scaling, and are informational only.
	for _, row := range base.Matrix {
		if row.Oversubscribed || row.GOMAXPROCS > base.Cores {
			continue
		}
		if row.PipelineVsSequential < 1-tolerance {
			return fmt.Errorf("baseline matrix records pipeline at %.2fx of sequential at GOMAXPROCS=%d — re-record after fixing",
				row.PipelineVsSequential, row.GOMAXPROCS)
		}
	}
	fmt.Println("bench check ok")
	return nil
}

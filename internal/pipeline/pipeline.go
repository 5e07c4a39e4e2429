// Package pipeline runs the per-project analysis path (DDL parsing →
// history assembly → measures → labels) over a corpus with a
// shard-per-core architecture: N shard goroutines claim projects from one
// shared cursor, and each shard owns its reconstructor scratch and runs
// every stage of a project to completion, with per-project error
// attribution, cooperative cancellation, and an optional content-addressed
// result cache that memoizes the expensive stages across invocations.
// There are no cross-stage channels: at one shard the run degenerates to
// exactly the sequential loop, so the pipeline can never underperform
// corpus.Corpus.Analyze by construction (the regression the earlier
// channel-staged design measured at 1 core).
//
// The pipeline is a pure accelerator: for any shard configuration, with a
// cold or warm cache, its per-project results are identical to the
// sequential corpus.Corpus.Analyze. The equivalence is enforced by
// property tests at several seeds and shard counts.
//
// The pipeline is also a fault boundary: a panicking, erroring, or stuck
// project becomes one attributed entry in the run's DegradationReport, and
// can never crash the process or perturb another project's results. Worker
// panics are recovered and classified; Options.ProjectTimeout arms a
// watchdog that abandons and quarantines stuck projects; a cache entry
// that cannot be read or used is a miss, and the project is recomputed.
// The chaos tests (chaos_test.go) drive all of this with deterministic
// fault injection (internal/faultinject) and assert the core invariant:
// projects untouched by faults produce results identical to a fault-free
// run.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"schemaevo/internal/corpus"
	"schemaevo/internal/faultinject"
	"schemaevo/internal/history"
	"schemaevo/internal/metrics"
	"schemaevo/internal/quantize"
	"schemaevo/internal/schema"
	"schemaevo/internal/sqlddl"
	"schemaevo/internal/sqlddl/dialect"
	"schemaevo/internal/telemetry"
	"schemaevo/internal/vcs"
)

// Options configures a pipeline run. The zero value is valid: one shard
// per core (GOMAXPROCS), the paper's quantization scheme, no cache, no
// deadline, no fault injection, and collect-all error handling.
type Options struct {
	// Shards sets how many analysis shards run the corpus; each shard is
	// one goroutine that claims the next unclaimed project and runs every
	// stage of it to completion. <= 0 selects GOMAXPROCS; the count is
	// clamped to the project count, and a single shard runs inline in the
	// caller's goroutine — exactly the sequential loop.
	Shards int
	// FailFast cancels the run on the first project failure instead of
	// collecting every failure (the default).
	FailFast bool
	// CacheDir enables the content-hash result cache rooted at this
	// directory; empty disables caching.
	CacheDir string
	// Dialect selects the SQL dialect DDL snapshots are parsed under:
	// "" or "generic" (the default) is the legacy union grammar, "auto"
	// detects per project from the first surviving snapshot, and a
	// concrete name ("mysql", "postgres", "sqlite", or an alias) forces
	// that adapter. The selection is part of the cache fingerprint and is
	// recorded in every produced History.Dialect.
	Dialect string
	// Scheme overrides the quantization scheme; nil selects the paper's
	// DefaultScheme.
	Scheme *quantize.Scheme
	// ProjectTimeout bounds one project's total in-stage processing time.
	// A project that exceeds it is failed with the timeout taxonomy and
	// its worker goroutine is abandoned (quarantined): the shard
	// moves on immediately and the stray goroutine's results are
	// discarded when it eventually returns. 0 disables the watchdog.
	ProjectTimeout time.Duration
	// Fault injects deterministic faults at the pipeline's named sites
	// (pipeline.parse, pipeline.assemble, pipeline.metrics, cache.read,
	// cache.write) — the chaos-testing hook. nil disables injection.
	Fault *faultinject.Injector
	// Telemetry, when non-nil, collects per-stage timings and occupancy,
	// cache effectiveness counters, fault/degradation events and per-project
	// spans for this run. nil (the default) disables collection at zero
	// hot-path cost.
	Telemetry *telemetry.Collector
}

// Stats reports what a pipeline run did. CacheHits counts projects whose
// history and measures were restored from the cache without recomputation.
// Degradation itemizes every lost project; it is non-nil on every run.
type Stats struct {
	Projects int `json:"projects"`
	Analyzed int `json:"analyzed"`
	Failed   int `json:"failed"`
	// Quarantined counts projects abandoned by the deadline watchdog.
	Quarantined int `json:"quarantined,omitempty"`
	// DataAnomalies counts recorded data anomalies (FailAnomaly taxonomy)
	// across successfully analyzed projects; the per-project detail is in
	// Degradation.Anomalies.
	DataAnomalies int `json:"data_anomalies,omitempty"`

	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	CacheWrites int `json:"cache_writes"`
	CacheErrors int `json:"cache_errors"`
	// CacheCorrupt counts entries that failed their checksum, decode or
	// fingerprint check and were read as misses (also included in
	// CacheErrors, preserving its "anything unhealthy" meaning).
	CacheCorrupt int `json:"cache_corrupt,omitempty"`

	// Shards is the resolved shard count of the run.
	Shards int `json:"shards"`

	Elapsed time.Duration `json:"elapsed_ns"`

	Degradation *DegradationReport `json:"degradation,omitempty"`
}

func (s Stats) String() string {
	msg := fmt.Sprintf(
		"pipeline: %d projects analyzed (%d failed) in %v; %d shards; cache %d hits, %d misses, %d writes",
		s.Analyzed, s.Failed, s.Elapsed.Round(time.Millisecond),
		s.Shards,
		s.CacheHits, s.CacheMisses, s.CacheWrites)
	if s.Quarantined > 0 {
		msg += fmt.Sprintf("; %d quarantined", s.Quarantined)
	}
	return msg
}

// Lifecycle states of one job, used to arbitrate between the committing
// worker and the deadline watchdog without locks.
const (
	stateRunning   int32 = iota // stages may process and commit the job
	stateCommitted              // the metrics stage published results to the Project
	stateAbandoned              // the watchdog gave up on the job; discard its results
)

// job carries one project through the stages. Derived values are staged
// here and committed to the Project only when the whole chain succeeds, so
// a failed project is left un-Analyzed rather than half-populated.
type job struct {
	p           *corpus.Project
	fingerprint string
	entry       *CachedResult
	ddlPath     string
	parsed      []history.ParsedVersion
	dialect     sqlddl.DialectID
	history     *history.History
	measures    metrics.Measures
	err         error
	kind        FailureKind
	// deadline is set when the project enters its first stage; the
	// watchdog abandons the job when a stage outlives it.
	deadline time.Time
	// readyAt is stamped (only when telemetry is on) when the job becomes
	// eligible for its next stage; the stage reads it to account queue wait.
	readyAt time.Time
	// state arbitrates commit vs abandon: the metrics stage CASes
	// running→committed before touching the Project, the watchdog CASes
	// running→abandoned before reporting a timeout. Exactly one wins, so
	// an abandoned worker can never publish results.
	state atomic.Int32
}

// Run analyzes every project of the corpus through the staged pipeline.
// On failure it returns the join of every project's error (or the first
// one under FailFast), each attributed to its project; projects that
// failed or were skipped keep Analyzed == false. Stats.Degradation holds
// the same failures in structured form, classified by taxonomy.
func Run(ctx context.Context, c *corpus.Corpus, opts Options) (Stats, error) {
	start := time.Now()
	n := len(c.Projects)
	scheme := quantize.DefaultScheme()
	if opts.Scheme != nil {
		scheme = *opts.Scheme
	}
	shards := clampWorkers(opts.Shards, n)
	stats := Stats{Projects: n, Shards: shards}

	// Resolve the dialect selection once: a forced adapter, or nil under
	// "auto" (per-project detection inside ParseVersionsIn). An unknown
	// name fails the whole run up front — silently falling back to generic
	// would poison the cache under a key claiming the requested dialect.
	autoDialect := opts.Dialect == "auto"
	var forcedDialect sqlddl.Dialect
	if !autoDialect {
		d, ok := dialect.ByName(opts.Dialect)
		if !ok {
			stats.Elapsed = time.Since(start)
			return stats, fmt.Errorf("pipeline: unknown dialect %q (accepted: %v)", opts.Dialect, dialect.Names())
		}
		forcedDialect = d
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	tel := opts.Telemetry
	// Register the stages in pipeline order so the report lists them that
	// way, and tap the injector so fired faults land in the run report.
	tel.Stage("parse").SetWorkers(shards)
	tel.Stage("assemble").SetWorkers(shards)
	tel.Stage("metrics").SetWorkers(shards)
	if tel != nil && opts.Fault != nil {
		opts.Fault.SetObserver(tel.Fault)
		defer opts.Fault.SetObserver(nil)
	}

	var cache *diskCache
	if opts.CacheDir != "" {
		var err error
		if cache, err = openCache(opts.CacheDir, opts.Fault, tel, runCtx); err != nil {
			stats.Elapsed = time.Since(start)
			return stats, err
		}
	}

	fail := func(j *job, kind FailureKind, err error) {
		j.kind = kind
		j.err = fmt.Errorf("pipeline: project %q: %w", j.p.Name, err)
		if opts.FailFast {
			cancel()
		}
	}

	// inject applies a configured fault at a pipeline stage site: KindErr
	// returns the error for the caller to attribute, KindPanic panics
	// (recovered by the stage wrapper), KindDelay stalls cooperatively.
	// KindCorrupt has no meaning at a stage boundary and is ignored.
	inject := func(site string, j *job) error {
		switch opts.Fault.At(site, j.p.Name) {
		case faultinject.KindErr:
			return &faultinject.Error{Site: site, Key: j.p.Name}
		case faultinject.KindPanic:
			panic(fmt.Sprintf("faultinject: %s (%s)", site, j.p.Name))
		case faultinject.KindDelay:
			opts.Fault.Sleep(runCtx)
		}
		return nil
	}

	// Stage 1: fingerprint/cache probe and snapshot parsing. The parse
	// work runs on the worker's own reconstructor, so one worker's whole
	// job stream shares parser buffers and an intern table.
	parse := func(j *job, ws *workerScratch) {
		if err := inject("pipeline.parse", j); err != nil {
			fail(j, FailParse, err)
			return
		}
		if cache != nil {
			j.fingerprint = FingerprintDialect(j.p.Repo, opts.Dialect)
			if j.entry = cache.load(j.fingerprint); j.entry != nil {
				j.history = j.entry.History
				j.measures = j.entry.Measures
				return
			}
		}
		if err := j.p.Repo.Validate(); err != nil {
			fail(j, FailParse, err)
			return
		}
		j.ddlPath = j.p.Repo.MainDDLPath()
		if j.ddlPath == "" {
			fail(j, FailParse, fmt.Errorf("history: repo %q has no DDL file", j.p.Repo.Name))
			return
		}
		rc, release := ws.reconstructor()
		defer release()
		parsed, err := history.ParseVersionsIn(rc, j.p.Repo, j.ddlPath, forcedDialect)
		if err != nil {
			fail(j, FailParse, err)
			return
		}
		j.parsed = parsed
		j.dialect = rc.DialectID()
	}

	// Stage 2: history assembly (diffing, heartbeats).
	assemble := func(j *job, _ *workerScratch) {
		if err := inject("pipeline.assemble", j); err != nil {
			fail(j, FailAssemble, err)
			return
		}
		if j.entry != nil {
			return
		}
		j.history = history.Assemble(j.p.Repo, j.ddlPath, j.parsed)
		j.history.Dialect = j.dialect
		j.parsed = nil
	}

	// Stage 3: measures, validation, cache write-back, labels, commit.
	measure := func(j *job, _ *workerScratch) {
		if err := inject("pipeline.metrics", j); err != nil {
			fail(j, FailMetrics, err)
			return
		}
		if j.entry == nil {
			j.measures = metrics.Compute(j.history)
			if err := j.measures.Validate(); err != nil {
				fail(j, FailMetrics, err)
				return
			}
			cache.store(j.fingerprint, j.p.Name, j.history, j.measures)
		}
		if !j.state.CompareAndSwap(stateRunning, stateCommitted) {
			// The watchdog abandoned this project mid-flight; its timeout
			// failure is already on the way to the collector. Discard.
			return
		}
		j.p.History = j.history
		j.p.Measures = j.measures
		if j.measures.HasSchema {
			j.p.Labels = quantize.Compute(j.measures, scheme)
		}
		j.p.Analyzed = true
	}

	exec := stageExec{timeout: opts.ProjectTimeout, fail: fail, col: tel}
	chain := [...]stage{
		exec.named("parse", parse),
		exec.named("assemble", assemble),
		exec.named("metrics", measure),
	}

	// Every job exists before any shard runs, so a cancelled or
	// failed-fast run still accounts for every project (skipped ones pass
	// through un-Analyzed and error-free).
	jobs := make([]*job, n)
	for i, p := range c.Projects {
		jobs[i] = &job{p: p}
	}

	// Each shard owns one workerScratch and claims the next project from
	// the shared cursor until none remain, driving each through every
	// stage back to back: no cross-stage handoff, no channel sends, and
	// reconstructor/parser state stays hot in one goroutine. Claiming
	// dynamically keeps every shard busy however the heavy projects fall.
	// Each index is claimed once, so a shard writes its (possibly
	// replaced) job back to jobs[i] without a lock. The stage wrappers
	// still provide panic isolation, the deadline watchdog, and per-stage
	// telemetry.
	var cursor atomic.Int64
	claim := func() int { return int(cursor.Add(1)) - 1 }
	runShard := func() {
		ws := &workerScratch{}
		defer ws.release()
		for i := claim(); i < n; i = claim() {
			j := jobs[i]
			if tel != nil {
				j.readyAt = time.Now()
			}
			for _, st := range &chain {
				if j.err == nil && runCtx.Err() == nil {
					if st.tel == nil {
						j = st.run(j, ws)
					} else {
						j = st.observed(j, ws)
					}
				}
				if st.tel != nil {
					j.readyAt = time.Now()
				}
			}
			jobs[i] = j
		}
	}
	if shards <= 1 {
		// Single shard: run inline in the caller's goroutine — this is
		// exactly the sequential analysis loop, with zero scheduling
		// overhead on top.
		runShard()
	} else {
		var wg sync.WaitGroup
		for s := 0; s < shards; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runShard()
			}()
		}
		wg.Wait()
	}

	// Collect in corpus order: jobs is index-addressed, so failure and
	// anomaly reporting is deterministic without sorting.
	var failures []*job
	var anomalous []*job
	for _, j := range jobs {
		if j.err != nil {
			failures = append(failures, j)
			tel.Degradation(string(j.kind))
		} else if j.p.Analyzed {
			stats.Analyzed++
			if j.history != nil && len(j.history.SpanAnomalies()) > 0 {
				anomalous = append(anomalous, j)
			}
		}
	}
	stats.Failed = len(failures)
	if cache != nil {
		stats.CacheHits = int(cache.cnt.Load(telemetry.CacheHits))
		stats.CacheMisses = int(cache.cnt.Load(telemetry.CacheMisses))
		stats.CacheWrites = int(cache.cnt.Load(telemetry.CacheWrites))
		stats.CacheErrors = int(cache.cnt.Load(telemetry.CacheErrors))
		stats.CacheCorrupt = int(cache.cnt.Load(telemetry.CacheCorrupt))
	}

	rep := &DegradationReport{Projects: n, ByKind: map[FailureKind]int{}, CacheIncidents: stats.CacheErrors}
	for _, j := range failures {
		rep.Failures = append(rep.Failures, ProjectFailure{Project: j.p.Name, Kind: j.kind, Error: j.err.Error()})
		rep.ByKind[j.kind]++
		if j.kind == FailTimeout {
			rep.Quarantined = append(rep.Quarantined, j.p.Name)
		}
	}
	for _, j := range anomalous {
		for _, msg := range j.history.SpanAnomalies() {
			rep.Anomalies = append(rep.Anomalies, ProjectAnomaly{Project: j.p.Name, Message: msg})
			tel.Degradation(string(FailAnomaly))
		}
	}
	stats.DataAnomalies = len(rep.Anomalies)
	stats.Quarantined = len(rep.Quarantined)
	rep.Analyzed = stats.Analyzed
	stats.Degradation = rep
	stats.Elapsed = time.Since(start)

	errs := make([]error, 0, len(failures)+1)
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	for _, j := range failures {
		errs = append(errs, j.err)
	}
	return stats, errors.Join(errs...)
}

// stageExec carries the per-run fault-handling and telemetry configuration
// shared by the three stages; named binds it to one stage's function.
type stageExec struct {
	timeout time.Duration
	fail    func(*job, FailureKind, error)
	col     *telemetry.Collector
}

func (e stageExec) named(name string, fn func(*job, *workerScratch)) stage {
	return stage{name: name, fn: fn, timeout: e.timeout, fail: e.fail, col: e.col, tel: e.col.Stage(name)}
}

// workerScratch is the per-shard arena: state one shard goroutine reuses
// across every job it processes, so steady-state stage work stops
// allocating per project. It is owned by exactly one goroutine at a time
// and must never be shared with an abandonable goroutine (see stage.run).
type workerScratch struct {
	rc *schema.Reconstructor
}

// reconstructor returns the worker's reconstructor and a release func.
// With a nil receiver (no worker affinity: the deadline watchdog may
// abandon the running goroutine and reuse the worker, so worker state
// cannot be lent out) it falls back to a pooled per-call instance.
func (ws *workerScratch) reconstructor() (*schema.Reconstructor, func()) {
	if ws != nil {
		if ws.rc == nil {
			ws.rc = schema.AcquireReconstructor()
		}
		return ws.rc, func() {}
	}
	rc := schema.AcquireReconstructor()
	return rc, func() { schema.ReleaseReconstructor(rc) }
}

func (ws *workerScratch) release() {
	if ws.rc != nil {
		schema.ReleaseReconstructor(ws.rc)
		ws.rc = nil
	}
}

// stage is the unit of execution of one pipeline stage: the stage function wrapped in
// panic recovery and (when configured) the per-project deadline watchdog.
type stage struct {
	name    string
	fn      func(*job, *workerScratch)
	timeout time.Duration
	fail    func(*job, FailureKind, error)
	// col and tel are nil when telemetry is off; the worker loop gates all
	// clock reads on tel so the disabled path costs one pointer compare.
	col *telemetry.Collector
	tel *telemetry.Stage
}

// invoke runs the stage function under panic isolation: a panicking
// project becomes an attributed failure of that project, never a crashed
// process.
func (s stage) invoke(j *job, ws *workerScratch) {
	defer func() {
		if r := recover(); r != nil {
			s.fail(j, FailPanic, fmt.Errorf("%s stage: panic: %v\n%s", s.name, r, debug.Stack()))
		}
	}()
	s.fn(j, ws)
}

// run executes the stage for one job. Without a timeout it runs inline.
// With one, the stage function runs in a goroutine raced against the
// job's deadline (armed on first-stage entry and shared by all stages):
// if the deadline fires first and the abandon CAS wins, the worker moves
// on immediately with a replacement job carrying the timeout failure,
// while the stray goroutine finishes in the background against a job
// nobody reads — the commit gate in the metrics stage keeps it from ever
// publishing to the Project.
func (s stage) run(j *job, ws *workerScratch) *job {
	if s.timeout <= 0 {
		s.invoke(j, ws)
		return j
	}
	if j.deadline.IsZero() {
		j.deadline = time.Now().Add(s.timeout)
	}
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		// The goroutine may outlive the watchdog's abandonment while the
		// worker moves on to the next job, so it must not borrow the
		// worker's scratch: nil routes it to pooled per-call state.
		s.invoke(j, nil)
	}()
	timer := time.NewTimer(time.Until(j.deadline))
	defer timer.Stop()
	select {
	case <-finished:
		return j
	case <-timer.C:
		if !j.state.CompareAndSwap(stateRunning, stateAbandoned) {
			// The job committed in the race window; keep it.
			<-finished
			return j
		}
		repl := &job{p: j.p, deadline: j.deadline}
		s.fail(repl, FailTimeout, fmt.Errorf(
			"%s stage: exceeded the per-project deadline (%v); worker quarantined", s.name, s.timeout))
		return repl
	}
}

// observed wraps run with the stage's telemetry: queue wait (time since the
// job became eligible), occupancy, the per-job duration histogram, and one
// trace span. Only called when telemetry is on.
func (s stage) observed(j *job, ws *workerScratch) *job {
	var wait time.Duration
	if !j.readyAt.IsZero() {
		wait = time.Since(j.readyAt)
	}
	s.tel.Enter()
	begin := time.Now()
	j = s.run(j, ws)
	busy := time.Since(begin)
	s.tel.Exit()
	failed := j.err != nil
	s.tel.Observe(wait, busy, failed)
	s.col.RecordSpan(j.p.Name, s.name, begin, busy, failed)
	return j
}

// clampWorkers resolves a shard-count request against the job count:
// <= 0 selects GOMAXPROCS, and there are never more shards than jobs.
func clampWorkers(n, jobs int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if jobs > 0 && n > jobs {
		n = jobs
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Result is the analysis of a single repository produced by AnalyzeRepo.
type Result struct {
	History  *history.History
	Measures metrics.Measures
	Labels   quantize.Labels
}

// AnalyzeRepo runs one repository through the pipeline (including the
// cache, when configured). It is the single-project entry point behind the
// schemaevo command and public API.
func AnalyzeRepo(ctx context.Context, r *vcs.Repo, opts Options) (*Result, Stats, error) {
	c := &corpus.Corpus{Projects: []*corpus.Project{{Name: r.Name, Repo: r}}}
	stats, err := Run(ctx, c, opts)
	if err != nil {
		return nil, stats, err
	}
	p := c.Projects[0]
	return &Result{History: p.History, Measures: p.Measures, Labels: p.Labels}, stats, nil
}

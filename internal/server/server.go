// Package server exposes the schema-evolution analysis toolchain as a
// zero-dependency (net/http) HTTP service: submit a project's DDL commit
// history, get back its time-related pattern, measures and labels; query
// corpus-wide pattern statistics; scrape the run's telemetry.
//
// The hot path is built for heavy duplicate traffic and long-lived data:
//
//   - a singleflight group collapses concurrent identical submissions
//     (same content fingerprint) into one pipeline execution;
//   - a sharded two-tier result store (internal/store) is the source of
//     truth: a bounded in-memory hot tier over optional on-disk segment
//     files holding both the encoded result and the submitted source
//     snapshot — so eviction, corruption and restarts cost recomputation
//     at worst, never data loss;
//   - version N+1 submissions of a known project are re-analyzed
//     incrementally: the persisted snapshot proves the new history
//     extends the old one, so only the suffix is parsed and diffed
//     (pipeline.ExtendResult), byte-identical to a cold full analysis;
//   - a bounded worker semaphore backpressures analysis work — a
//     saturated server answers 429 with a Retry-After hint on the single
//     submit path, while the streaming batch endpoint blocks per line
//     (natural backpressure) instead;
//   - every request runs under a deadline, and BeginDrain flips the
//     server into lame-duck mode: in-flight requests complete, new ones
//     get 503 (the SIGTERM contract, see DESIGN.md §9).
//
// Corpus-wide aggregates (/v1/corpus/stats, /v1/corpus/patterns) are
// incrementally maintained: submissions join them on commit, overwrites
// and DELETEs invalidate, and a warm restart rebuilds them from the disk
// tier without re-running any analysis.
//
// Telemetry (internal/telemetry) observes every endpoint — request
// counters, latency histograms, an in-flight gauge — plus the store's
// tiered hit/miss block and two analysis stages: "analyze.exec" counts
// full pipeline executions, "analyze.incr" counts incremental
// re-analyses (the differential tests key off both). Fault injection
// (internal/faultinject) reaches the handler path through the
// "server.submit" site, the store through "store.flush", and flows into
// the pipeline's own sites, so the chaos suite can exercise the full
// service stack.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"schemaevo/internal/core"
	"schemaevo/internal/corpus"
	"schemaevo/internal/faultinject"
	"schemaevo/internal/pipeline"
	"schemaevo/internal/quantize"
	"schemaevo/internal/sqlddl/dialect"
	"schemaevo/internal/store"
	"schemaevo/internal/telemetry"
	"schemaevo/internal/vcs"
)

// Config parameterizes a Server. The zero value is valid: no preloaded
// corpus, a memory-only store, defaults for every limit, a fresh
// telemetry collector, no fault injection.
type Config struct {
	// Corpus, when non-nil, is analyzed at construction time and served
	// by the /v1/corpus endpoints and by GET /v1/projects/{id}.
	Corpus *corpus.Corpus
	// StoreDir enables the result store's disk tier: submitted analyses
	// (results AND source snapshots) persist across restarts in sharded
	// segment files under this directory. Empty selects memory-only mode.
	StoreDir string
	// StoreShards is the disk tier's segment-file count. <= 0 selects 8.
	// Fixed at directory creation; reopening ignores a differing value.
	StoreShards int
	// Dialect selects the SQL grammar for every analysis — the startup
	// corpus and each submission: "" or "generic" (the permissive union
	// grammar, the default), a concrete dialect name, or "auto" for
	// per-file detection. Unknown names fail New up front; resolved
	// dialects appear in every /v1 analysis body.
	Dialect string
	// AnalysisShards is the analysis pipeline's shard count (one shard =
	// one goroutine owning its parse/assemble/metrics scratch), used for
	// the startup corpus analysis and every submitted analysis. <= 0
	// selects GOMAXPROCS; 1 selects the sequential path.
	AnalysisShards int
	// MaxConcurrent bounds concurrently executing submissions (the worker
	// semaphore). Beyond it the single submit path answers 429. <= 0
	// selects 2×GOMAXPROCS.
	MaxConcurrent int
	// RequestTimeout is the per-request deadline. <= 0 selects 30s. The
	// streaming batch endpoint is exempt as a whole (its lifetime is
	// client-paced) and applies this budget to each line instead.
	RequestTimeout time.Duration
	// LRUEntries caps the store's in-memory hot tier by entry count.
	// <= 0 selects 1024.
	LRUEntries int
	// HotBytes caps the hot tier by total encoded-result bytes. <= 0
	// selects 256 MiB.
	HotBytes int64
	// RetryAfter is the backoff hint advertised on 429/503 responses.
	// <= 0 selects 1s.
	RetryAfter time.Duration
	// MaxBodyBytes bounds a single-submission body. <= 0 selects 32 MiB.
	MaxBodyBytes int64
	// MaxLineBytes bounds one NDJSON line on the batch endpoint. <= 0
	// selects 4 MiB.
	MaxLineBytes int
	// Scheme overrides the quantization scheme; nil selects the paper's.
	Scheme *quantize.Scheme
	// Telemetry receives the service's observability stream; nil selects
	// a fresh collector (the server always observes).
	Telemetry *telemetry.Collector
	// Fault injects deterministic chaos into the handler path (site
	// "server.submit"), the store ("store.flush", "store.scrub",
	// "store.diskfull", "store.slowdisk"), and the pipeline/cache sites of
	// submitted analyses. nil disables injection. Startup corpus analysis
	// is always fault-free. New joins the injector to the server's
	// collector, so /metrics counts every fault that fires.
	Fault *faultinject.Injector
	// ScrubInterval enables the background store scrubber: every interval
	// it CRC-verifies stored records ahead of demand, quarantines latent
	// corruption, repairs affected projects by re-analysis from their
	// persisted source snapshots, schedules compaction, and runs the
	// disk-budget watchdog. <= 0 disables the background loop (ScrubNow
	// stays available for on-demand passes).
	ScrubInterval time.Duration
	// DiskLowBytes is the disk-budget watchdog's free-space floor: while
	// the store directory's filesystem has less available, the store
	// degrades to read-only (write endpoints answer 503 + Retry-After,
	// reads keep serving) instead of crashing into ENOSPC, recovering once
	// free space climbs back above twice the floor. <= 0 disables the
	// watchdog.
	DiskLowBytes int64
	// RenderBytes caps the pre-rendered response cache (the zero-copy
	// serving tier: each project's wire JSON rendered once into an
	// immutable []byte and served with a single write). 0 selects 64 MiB;
	// negative disables the cache — every read re-renders, which the
	// eviction/re-analysis tests use to exercise the fall-through paths.
	RenderBytes int64
}

// Server is the HTTP analysis service. Construct with New; it implements
// http.Handler. Close releases the store.
type Server struct {
	cfg    Config
	scheme quantize.Scheme
	tel    *telemetry.Collector
	mux    *http.ServeMux

	corpus *corpus.Corpus
	index  *corpus.Index

	store  *store.Store
	flight flightGroup
	sem    chan struct{}
	// render is the pre-rendered response cache (nil when disabled via
	// RenderBytes < 0); invalidated through the store's OnCommit hook.
	render *renderCache

	// agg is the aggregate membership index (aggregate.go): the analyzed
	// corpus plus every live store-backed project, maintained on every
	// commit/delete/overwrite.
	aggMu sync.Mutex
	agg   patternIndex

	execStage *telemetry.Stage
	incrStage *telemetry.Stage

	draining     atomic.Bool
	inflight     atomic.Int64
	analyses     atomic.Int64
	incrementals atomic.Int64
	// semWait counts callers currently blocked on the worker semaphore
	// (batch lines and repairs); together with the semaphore's occupancy it
	// drives the adaptive Retry-After hint.
	semWait atomic.Int64
}

// errSaturated is returned by the submit path when the worker semaphore
// is full; the handler maps it to 429 + Retry-After.
var errSaturated = errors.New("server: analysis workers saturated")

// New builds the service: analyzes the configured corpus (fault-free,
// through the staged pipeline), indexes it by content-hash ID, opens the
// result store (recovering any persisted projects and rebuilding the
// live aggregates from them — with zero re-analyses), and wires the
// routes. It fails if the corpus cannot be fully analyzed — a serving
// process must not start with a silently shrunken dataset.
func New(ctx context.Context, cfg Config) (*Server, error) {
	// Fail fast on an unknown dialect: every later analysis would fail
	// the same way, and the fingerprints computed before the first
	// analysis would claim a selection that can never resolve.
	if cfg.Dialect != "auto" {
		if _, ok := dialect.ByName(cfg.Dialect); !ok {
			return nil, fmt.Errorf("server: unknown dialect %q (accepted: %v)", cfg.Dialect, dialect.Names())
		}
	}
	s := &Server{
		cfg:    cfg,
		scheme: quantize.DefaultScheme(),
		agg:    newPatternIndex(),
	}
	if cfg.Scheme != nil {
		s.scheme = *cfg.Scheme
	}
	if s.tel = cfg.Telemetry; s.tel == nil {
		s.tel = telemetry.New()
	}
	cfg.Fault.SetObserver(s.tel.Fault)
	max := cfg.MaxConcurrent
	if max <= 0 {
		max = 2 * runtime.GOMAXPROCS(0)
	}
	s.sem = make(chan struct{}, max)
	s.execStage = s.tel.Stage("analyze.exec")
	s.incrStage = s.tel.Stage("analyze.incr")

	if cfg.RenderBytes >= 0 {
		rb := cfg.RenderBytes
		if rb == 0 {
			rb = 64 << 20
		}
		s.render = newRenderCache(rb, s.tel)
	}
	// Every store mutation (overwrite, delete, re-analysis write-back)
	// invalidates the affected IDs' rendered bodies after the mutation is
	// fully visible — the epoch protocol in rendercache.go relies on this
	// ordering.
	var onCommit func(id string, seq uint64)
	if s.render != nil {
		onCommit = func(id string, _ uint64) { s.render.invalidate(id) }
	}

	st, err := store.Open(store.Config{
		Dir:        cfg.StoreDir,
		Shards:     cfg.StoreShards,
		HotEntries: cfg.LRUEntries,
		HotBytes:   cfg.HotBytes,
		Telemetry:  s.tel,
		Fault:      cfg.Fault,
		OnCommit:   onCommit,
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s.store = st

	s.corpus = cfg.Corpus
	if s.corpus == nil {
		s.corpus = &corpus.Corpus{}
	}
	if len(s.corpus.Projects) > 0 {
		opts := pipeline.Options{Scheme: cfg.Scheme, Telemetry: s.tel, Shards: cfg.AnalysisShards, Dialect: cfg.Dialect}
		if _, err := pipeline.Run(ctx, s.corpus, opts); err != nil {
			st.Close()
			return nil, fmt.Errorf("server: corpus analysis: %w", err)
		}
	}
	ids := make(map[*corpus.Project]string, len(s.corpus.Projects))
	idOf := func(p *corpus.Project) string {
		if id, ok := ids[p]; ok {
			return id
		}
		id := projectID(pipeline.FingerprintDialect(p.Repo, cfg.Dialect))
		ids[p] = id
		return id
	}
	idx, err := corpus.NewIndex(s.corpus, idOf)
	if err != nil {
		st.Close()
		return nil, err
	}
	s.index = idx
	for _, p := range s.corpus.Projects {
		if p.Analyzed {
			s.agg.load(idOf(p), p.Name, p.Assigned(), false)
		}
	}

	// Warm restart: every persisted project rejoins the aggregates from
	// its stored result — decode only, no analysis. Entries whose result
	// is currently unreadable (quarantined) stay out until re-analyzed on
	// demand. The corpus and stored members load in bulk and each group
	// sorts once.
	s.store.Each(func(id, name string, result []byte) {
		if result == nil {
			return
		}
		if _, corpusOwned := s.index.Lookup(id); corpusOwned {
			return
		}
		if res, err := pipeline.DecodeResult(result); err == nil {
			s.agg.load(id, name, assignedPattern(res.Measures, s.scheme), true)
		}
	})
	s.agg.sortGroups()

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/projects", s.wrap("submit", s.handleSubmit))
	s.mux.HandleFunc("POST /v1/projects:batch", s.wrapStream("batch", s.handleBatch))
	s.mux.HandleFunc("GET /v1/projects/{id}", s.wrap("project", s.handleProject))
	s.mux.HandleFunc("DELETE /v1/projects/{id}", s.wrap("delete", s.handleDelete))
	s.mux.HandleFunc("GET /v1/corpus/stats", s.wrap("stats", s.handleCorpusStats))
	s.mux.HandleFunc("GET /v1/corpus/patterns", s.wrap("patterns", s.handleCorpusPatterns))
	s.mux.HandleFunc("GET /healthz", s.wrap("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.wrap("readyz", s.handleReadyz))
	s.mux.HandleFunc("GET /metrics", s.wrap("metrics", s.handleMetrics))

	if cfg.ScrubInterval > 0 {
		s.store.StartScrubber(s.scrubConfig())
	}
	return s, nil
}

// projectID derives the short stable resource ID from a full content
// fingerprint.
func projectID(fingerprint string) string {
	return fingerprint[:corpus.IDLen]
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the background scrubber and releases the result store
// (segment file handles). The server must not serve requests afterwards.
func (s *Server) Close() error { return s.store.Close() }

// BeginDrain flips the server into lame-duck mode: every subsequent
// request is answered 503 + Retry-After, while requests already in flight
// run to completion. Idempotent. Pair it with http.Server.Shutdown, which
// waits for the in-flight set to drain (the SIGTERM sequence in
// cmd/schemaevod).
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Analyses returns the number of full pipeline executions the service
// performed (submissions collapsed by the singleflight group, served
// from the store, or analyzed incrementally do not count).
func (s *Server) Analyses() int64 { return s.analyses.Load() }

// Incrementals returns the number of submissions analyzed incrementally
// against a persisted predecessor snapshot.
func (s *Server) Incrementals() int64 { return s.incrementals.Load() }

// Stored returns the number of live projects in the result store.
func (s *Server) Stored() int { return s.store.Len() }

// InFlight returns the number of requests currently being served.
func (s *Server) InFlight() int64 { return s.inflight.Load() }

// statusWriter captures the response status for telemetry.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards streaming flushes (the batch endpoint) to the
// underlying writer.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer so http.NewResponseController
// can reach per-connection controls (full-duplex mode for batch
// streaming) through this wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// wrap is the per-endpoint middleware: the drain gate, the per-request
// deadline, and telemetry (request counter, latency histogram, in-flight
// occupancy).
func (s *Server) wrap(name string, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return s.instrument(name, true, h)
}

// wrapStream is wrap without the whole-request deadline, for streaming
// endpoints whose lifetime is client-paced: a large NDJSON batch with
// blocking backpressure legitimately outlives any fixed request budget,
// so the batch handler bounds its work per line instead (see
// requestTimeout) and relies on context cancellation for client
// disconnects.
func (s *Server) wrapStream(name string, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return s.instrument(name, false, h)
}

func (s *Server) instrument(name string, deadline bool, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	stage := s.tel.Stage("http." + name)
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			w.Header().Set("Retry-After", s.retryAfterSeconds())
			writeError(w, http.StatusServiceUnavailable, "server is draining", nil)
			return
		}
		if deadline {
			ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout())
			defer cancel()
			r = r.WithContext(ctx)
		}

		s.inflight.Add(1)
		stage.Enter()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		begin := time.Now()
		h(sw, r)
		busy := time.Since(begin)
		stage.Exit()
		s.inflight.Add(-1)
		failed := sw.status >= 500
		stage.Observe(0, busy, failed)
	}
}

// requestTimeout resolves the configured per-request deadline.
func (s *Server) requestTimeout() time.Duration {
	if s.cfg.RequestTimeout > 0 {
		return s.cfg.RequestTimeout
	}
	return 30 * time.Second
}

// retryAfterSeconds renders the backoff hint as whole seconds (minimum
// 1, the header's granularity). The hint is adaptive: the configured base
// scales with current pressure — busy workers plus callers blocked on the
// semaphore, relative to capacity — clamped to [base, 8×base]. An idle
// server hints the base so transient rejections (drain races, read-only
// blips) retry promptly; a saturated server with a deep waiter backlog
// tells clients to stay away up to 8× longer, spreading the retry storm
// instead of synchronizing it.
func (s *Server) retryAfterSeconds() string {
	base := s.cfg.RetryAfter
	if base <= 0 {
		base = time.Second
	}
	d := base
	if capacity := int64(cap(s.sem)); capacity > 0 {
		load := int64(len(s.sem)) + s.semWait.Load()
		// Linear ramp: factor 1 at load 0 up to 8 at load ≥ 2×capacity
		// (every worker busy and as many callers again queued behind them).
		factor := 1 + 7*float64(load)/float64(2*capacity)
		if factor > 8 {
			factor = 8
		}
		d = time.Duration(float64(base) * factor)
	}
	secs := int((d + time.Second - 1) / time.Second) // ceil: never hint below a busy base
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// maxBodyPresize caps the buffer handleSubmit allocates from a request's
// declared Content-Length before any body byte has arrived. It covers a
// typical submission (tens of KB) in one allocation.
const maxBodyPresize = 64 << 10

// handleSubmit is POST /v1/projects: accept a DDL commit history
// (vcs.Repo JSON), analyze it — deduplicated by content fingerprint,
// incrementally when the store holds the project's previous version,
// bounded by the worker semaphore — and return the pattern-study result.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.store.ReadOnly() {
		s.writeReadOnly(w)
		return
	}
	maxBody := s.cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = 32 << 20
	}
	// Read the body once, presized from its declared length; MinRead
	// spare bytes let the final read see EOF without growing the buffer.
	// The presize is capped at maxBodyPresize, not at the body limit: the
	// length is the client's claim, and a client that declares 32 MiB and
	// then stalls must not hold 32 MiB of server memory. Longer bodies grow
	// the buffer as their bytes arrive.
	size := min(r.ContentLength, maxBodyPresize)
	if size < 0 {
		size = 0
	}
	var body bytes.Buffer
	body.Grow(int(size) + bytes.MinRead)
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody))
	var repo *vcs.Repo
	if err == nil {
		repo, err = vcs.DecodeJSON(body.Bytes())
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid repository JSON: "+err.Error(), nil)
		return
	}
	if err := repo.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), nil)
		return
	}
	out, cacheState, err := s.submit(r.Context(), repo, false)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	s.serveRendered(w, r, out.entry, cacheState, false)
}

// submitOutcome carries the singleflight leader's result plus how it was
// obtained, so followers can label their responses. entry is always a
// fully rendered body; the batch endpoint reads the project and pattern
// summaries off it without decoding anything.
type submitOutcome struct {
	id    string
	entry renderEntry
	state string // "hit", "miss", or "incremental"
}

// submit is the shared analysis path of the single and batch endpoints:
// render cache, then store lookup, then singleflight and
// incremental-or-full analysis plus commit.
// wait selects the semaphore discipline — false rejects with errSaturated
// when all workers are busy (single submit's 429 contract), true blocks
// until a slot or ctx expiry (the batch endpoint's backpressure).
// The returned cache state is one of "hit", "coalesced", "incremental",
// "miss".
func (s *Server) submit(ctx context.Context, repo *vcs.Repo, wait bool) (*submitOutcome, string, error) {
	fingerprint := pipeline.FingerprintDialect(repo, s.cfg.Dialect)
	id := projectID(fingerprint)
	// A live rendered body is proof the store already holds this content
	// (corpus-only renders don't count: the first submission of a corpus
	// project must still analyze and commit it).
	if e, ok := s.render.get(id); ok && !e.corpus {
		return &submitOutcome{id: id, entry: e, state: "hit"}, "hit", nil
	}
	if e, ok := s.renderStored(id); ok {
		return &submitOutcome{id: id, entry: e, state: "hit"}, "hit", nil
	}
	val, err, shared := s.flight.Do(fingerprint, func() (any, error) {
		return s.analyze(ctx, repo, fingerprint, wait)
	})
	if err != nil {
		return nil, "", err
	}
	out := val.(*submitOutcome)
	state := out.state
	if shared {
		state = "coalesced"
	}
	return out, state, nil
}

// failServer is the degradation taxonomy bucket for faults injected at
// the handler path itself (site "server.submit"), as opposed to the
// pipeline's own parse/assemble/metrics/timeout/panic kinds.
const failServer = pipeline.FailureKind("server")

// handlerDegradation builds the single-project degradation report a
// handler-path incident attaches to its 500 body.
func handlerDegradation(project string, kind pipeline.FailureKind, msg string) *pipeline.DegradationReport {
	return &pipeline.DegradationReport{
		Projects: 1,
		ByKind:   map[pipeline.FailureKind]int{kind: 1},
		Failures: []pipeline.ProjectFailure{{Project: project, Kind: kind, Error: msg}},
	}
}

// analysisError carries a failed run's degradation report to the error
// body.
type analysisError struct {
	err error
	rep *pipeline.DegradationReport
}

func (e *analysisError) Error() string { return e.err.Error() }
func (e *analysisError) Unwrap() error { return e.err }

// analyze is the singleflight leader's body: acquire a worker slot,
// apply handler-path chaos, analyze incrementally against the persisted
// predecessor when possible (else run the full pipeline), and commit the
// result to the store and the live aggregates.
func (s *Server) analyze(ctx context.Context, repo *vcs.Repo, fingerprint string, wait bool) (v any, err error) {
	id := projectID(fingerprint)
	// Double-check the store under flight leadership: a caller that
	// missed the store, then became leader only after a previous leader
	// for the same content completed, must serve the stored result —
	// never a second analysis.
	if e, ok := s.renderStored(id); ok {
		return &submitOutcome{id: id, entry: e, state: "hit"}, nil
	}
	if wait {
		s.semWait.Add(1)
		select {
		case s.sem <- struct{}{}:
			s.semWait.Add(-1)
		case <-ctx.Done():
			s.semWait.Add(-1)
			return nil, ctx.Err()
		}
	} else {
		select {
		case s.sem <- struct{}{}:
		default:
			return nil, errSaturated
		}
	}
	defer func() { <-s.sem }()

	// The handler-path fault site: errors and panics become attributed
	// 500s with a degradation report; delays stall cooperatively (they
	// respect the request deadline via ctx).
	defer func() {
		if r := recover(); r != nil {
			err = &analysisError{
				err: fmt.Errorf("analysis panicked: %v", r),
				rep: handlerDegradation(repo.Name, pipeline.FailPanic, fmt.Sprint(r)),
			}
		}
	}()
	switch s.cfg.Fault.At("server.submit", repo.Name) {
	case faultinject.KindErr:
		ferr := &faultinject.Error{Site: "server.submit", Key: repo.Name}
		return nil, &analysisError{err: ferr, rep: handlerDegradation(repo.Name, failServer, ferr.Error())}
	case faultinject.KindPanic:
		panic(fmt.Sprintf("faultinject: server.submit (%s)", repo.Name))
	case faultinject.KindDelay:
		s.cfg.Fault.Sleep(ctx)
	}

	if res, ok := s.tryExtend(repo, id); ok {
		if cerr := s.commit(repo, fingerprint, id, res); cerr != nil {
			return nil, cerr
		}
		return &submitOutcome{id: id, entry: s.renderResult(id, res), state: "incremental"}, nil
	}

	res, aerr := s.runFull(ctx, repo, fingerprint)
	if aerr != nil {
		return nil, aerr
	}
	if cerr := s.commit(repo, fingerprint, id, res); cerr != nil {
		return nil, cerr
	}
	return &submitOutcome{id: id, entry: s.renderResult(id, res), state: "miss"}, nil
}

// tryExtend attempts incremental re-analysis: if the store holds this
// project's previous version (result + source snapshot) and the new
// history provably extends it, only the suffix is parsed and diffed. A
// nil return on any decode or precondition failure degrades silently to
// the full pipeline — incremental analysis is an optimization, never a
// correctness dependency.
func (s *Server) tryExtend(next *vcs.Repo, nextID string) (*pipeline.CachedResult, bool) {
	prevID, ok := s.store.LatestID(next.Name)
	if !ok || prevID == nextID {
		return nil, false
	}
	prevData, _, ok := s.store.Get(prevID)
	if !ok {
		return nil, false
	}
	prevRes, err := pipeline.DecodeResult(prevData)
	if err != nil {
		return nil, false
	}
	srcBytes, ok := s.store.Source(prevID)
	if !ok {
		return nil, false
	}
	prevRepo, err := pipeline.DecodeRepo(srcBytes)
	if err != nil {
		return nil, false
	}

	s.incrStage.Enter()
	begin := time.Now()
	res, ok := pipeline.ExtendResult(prevRes, prevRepo, next)
	busy := time.Since(begin)
	s.incrStage.Exit()
	s.incrStage.Observe(0, busy, !ok)
	if !ok {
		return nil, false
	}
	s.incrementals.Add(1)
	return res, true
}

// runFull executes the staged pipeline for one repo under the
// "analyze.exec" stage. The run's spans (stats.Spans) are dropped here:
// the daemon keeps nothing per analysis.
func (s *Server) runFull(ctx context.Context, repo *vcs.Repo, fingerprint string) (*pipeline.CachedResult, error) {
	s.execStage.Enter()
	begin := time.Now()
	res, stats, aerr := pipeline.AnalyzeRepo(ctx, repo, pipeline.Options{
		Scheme:    s.cfg.Scheme,
		Fault:     s.cfg.Fault,
		Telemetry: s.tel,
		Shards:    s.cfg.AnalysisShards,
		Dialect:   s.cfg.Dialect,
	})
	busy := time.Since(begin)
	s.execStage.Exit()
	s.execStage.Observe(0, busy, aerr != nil)
	s.analyses.Add(1)
	if aerr != nil {
		return nil, &analysisError{err: aerr, rep: stats.Degradation}
	}
	return &pipeline.CachedResult{
		Fingerprint: fingerprint,
		Project:     repo.Name,
		History:     res.History,
		Measures:    res.Measures,
	}, nil
}

// commit persists one analyzed submission — result and source snapshot —
// and folds it into the live aggregates, invalidating the superseded
// version. Every store error is a request failure: the write did not
// land, and the store installed nothing, so acking it would promise what
// a restart could lose. Read-only refusals and disk exhaustion answer 503
// (the client retries once space recovers), a torn flush 500.
func (s *Server) commit(repo *vcs.Repo, fingerprint, id string, res *pipeline.CachedResult) error {
	prevID, err := s.store.Put(store.Entry{
		ID:          id,
		Name:        repo.Name,
		Fingerprint: fingerprint,
		Source:      pipeline.EncodeRepo(repo),
		Result:      pipeline.EncodeResult(res),
	})
	if err != nil {
		return err
	}
	s.aggPut(id, repo.Name, assignedPattern(res.Measures, s.scheme), prevID)
	return nil
}

// aggPut updates the live aggregates: the superseded entry leaves, the
// new one joins — but only while it is still the name's live version
// (concurrent overwrites of one project linearize on the store, so the
// check keeps the aggregates convergent regardless of commit order), and
// never for corpus-owned IDs (the corpus contribution is immutable).
func (s *Server) aggPut(id, name string, pat core.Pattern, prevID string) {
	s.aggMu.Lock()
	defer s.aggMu.Unlock()
	s.agg.leave(prevID)
	live, ok := s.store.LatestID(name)
	_, corpusOwned := s.index.Lookup(id)
	if ok && live == id && !corpusOwned {
		s.agg.join(id, name, pat)
	}
}

// writeSubmitError maps a failed analysis or store mutation to its
// status code and body.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	if errors.Is(err, errSaturated) {
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		writeError(w, http.StatusTooManyRequests, errSaturated.Error(), nil)
		return
	}
	if errors.Is(err, store.ErrReadOnly) || store.IsDiskFull(err) {
		// The store flipped read-only mid-request (the endpoint gate passed
		// before the flip) or the disk is full: the write did not land,
		// so the client must retry — same contract as being gated up
		// front.
		s.writeReadOnly(w)
		return
	}
	var ae *analysisError
	if errors.As(err, &ae) {
		status := http.StatusInternalServerError
		if errors.Is(ae.err, context.DeadlineExceeded) {
			status = http.StatusGatewayTimeout
		}
		writeError(w, status, ae.err.Error(), ae.rep)
		return
	}
	if errors.Is(err, context.DeadlineExceeded) {
		writeError(w, http.StatusGatewayTimeout, err.Error(), nil)
		return
	}
	writeError(w, http.StatusInternalServerError, err.Error(), nil)
}

// serveRendered writes one pre-rendered JSON body with its strong ETag
// in a single Write. conditional enables the If-None-Match tier (GETs):
// a match answers 304 Not Modified with zero body bytes, the ETag header
// still present so caches can refresh their metadata.
func (s *Server) serveRendered(w http.ResponseWriter, r *http.Request, e renderEntry, state string, conditional bool) {
	h := w.Header()
	h.Set("X-Cache", state)
	h.Set("ETag", e.etag)
	if conditional && ifNoneMatchSatisfied(r.Header.Get("If-None-Match"), e.etag) {
		s.tel.Add(telemetry.RenderNotModified, 1)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(e.body)))
	w.WriteHeader(http.StatusOK)
	w.Write(e.body)
}

// renderStored renders id's live stored result into a cache entry under
// the epoch protocol: snapshot the epoch, read the store, render, insert
// only if no invalidation intervened. ok=false when the store has no
// readable result for id.
func (s *Server) renderStored(id string) (renderEntry, bool) {
	epoch := s.render.epochOf(id)
	data, _, ok := s.store.Get(id)
	if !ok {
		return renderEntry{}, false
	}
	res, err := pipeline.DecodeResult(data)
	if err != nil {
		// An undecodable store entry is impossible short of memory
		// corruption; treat it as a miss and let the caller recompute.
		return renderEntry{}, false
	}
	e := buildRenderEntry(id, res.Project, res.History, res.Measures, s.scheme, false)
	s.render.put(id, epoch, e)
	return e, true
}

// renderStoredFlight is renderStored with concurrent first renders of
// the same id collapsed onto one leader.
func (s *Server) renderStoredFlight(id string) (renderEntry, bool) {
	type outcome struct {
		e  renderEntry
		ok bool
	}
	val, _, _ := s.flight.Do("render:"+id, func() (any, error) {
		e, ok := s.renderStored(id)
		return outcome{e, ok}, nil
	})
	o := val.(outcome)
	return o.e, o.ok
}

// renderResult renders a result the caller just committed (analysis or
// re-analysis write-back). The epoch snapshot happens after that commit,
// so the insert is rejected if any later mutation raced us; the liveness
// re-check keeps a fully completed DELETE in the gap from being shadowed
// by a resurrected body. The entry is served to the caller either way.
func (s *Server) renderResult(id string, res *pipeline.CachedResult) renderEntry {
	epoch := s.render.epochOf(id)
	e := buildRenderEntry(id, res.Project, res.History, res.Measures, s.scheme, false)
	if live, ok := s.store.LatestID(res.Project); ok && live == id {
		s.render.put(id, epoch, e)
	}
	return e
}

// renderCorpus renders an immutable corpus project's body. Reached only
// after the store paths missed; a submission of the same content racing
// in commits under the same ID (the fingerprint covers the name) with
// byte-identical rendering, and its commit invalidation evicts this
// entry so the store-backed state takes over.
func (s *Server) renderCorpus(id string, p *corpus.Project) renderEntry {
	epoch := s.render.epochOf(id)
	e := buildRenderEntry(id, p.Name, p.History, p.Measures, s.scheme, true)
	s.render.put(id, epoch, e)
	return e
}

// handleProject is GET /v1/projects/{id}: the rendered-body cache first
// (one Write, no decode, no marshal), then the result store (any
// previously submitted history, hot or disk tier), then on-demand
// re-analysis from the persisted source snapshot (an evicted or
// quarantined result is recomputable, not lost), then the corpus index
// (preloaded projects), else 404. Responses are byte-identical to the
// submit response for the same content, carry a strong ETag, and answer
// If-None-Match with a zero-body 304.
func (s *Server) handleProject(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if e, ok := s.render.get(id); ok {
		state := "hit"
		if e.corpus {
			state = "corpus"
		}
		s.serveRendered(w, r, e, state, true)
		return
	}
	if e, ok := s.renderStoredFlight(id); ok {
		s.serveRendered(w, r, e, "hit", true)
		return
	}
	if res, ok, err := s.reanalyze(r.Context(), id); err != nil {
		s.writeSubmitError(w, err)
		return
	} else if ok {
		s.serveRendered(w, r, s.renderResult(id, res), "reanalyzed", true)
		return
	}
	if p, ok := s.index.Lookup(id); ok && p.Analyzed {
		s.serveRendered(w, r, s.renderCorpus(id, p), "corpus", true)
		return
	}
	writeError(w, http.StatusNotFound, "unknown project id "+id, nil)
}

// reanalyze recomputes a live entry whose result is currently
// unreadable, from its persisted source snapshot, writing the result
// back to the store. Returns ok=false when the store has no source for
// id (the caller falls through to the corpus / 404).
func (s *Server) reanalyze(ctx context.Context, id string) (*pipeline.CachedResult, bool, error) {
	srcBytes, ok := s.store.Source(id)
	if !ok {
		return nil, false, nil
	}
	val, err, _ := s.flight.Do("reanalyze:"+id, func() (any, error) {
		// The result may have reappeared while we waited for leadership.
		if data, _, ok := s.store.Get(id); ok {
			if res, derr := pipeline.DecodeResult(data); derr == nil {
				return res, nil
			}
		}
		repo, derr := pipeline.DecodeRepo(srcBytes)
		if derr != nil {
			return nil, fmt.Errorf("server: stored snapshot for %s: %w", id, derr)
		}
		// The decoded strings are views of srcBytes. The name outlives
		// this request: the pattern index and the render cache keep it.
		// Its own copy spares them pinning the whole snapshot.
		repo.Name = strings.Clone(repo.Name)
		s.semWait.Add(1)
		select {
		case s.sem <- struct{}{}:
			s.semWait.Add(-1)
		case <-ctx.Done():
			s.semWait.Add(-1)
			return nil, ctx.Err()
		}
		defer func() { <-s.sem }()
		res, aerr := s.runFull(ctx, repo, pipeline.FingerprintDialect(repo, s.cfg.Dialect))
		if aerr != nil {
			return nil, aerr
		}
		s.tel.Add(telemetry.StoreReanalyses, 1)
		if perr := s.store.PutResult(id, pipeline.EncodeResult(res)); perr == nil {
			s.aggPut(id, repo.Name, assignedPattern(res.Measures, s.scheme), "")
		}
		return res, nil
	})
	if err != nil {
		return nil, false, err
	}
	return val.(*pipeline.CachedResult), true, nil
}

// deleteWire is the DELETE /v1/projects/{id} success body.
type deleteWire struct {
	SchemaVersion int    `json:"schema_version"`
	ID            string `json:"id"`
	Status        string `json:"status"`
}

// handleDelete is DELETE /v1/projects/{id}: remove a submitted project
// from the store (tombstoned on disk, gone from every tier and the
// aggregates). Corpus projects are immutable — 403.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if s.store.ReadOnly() {
		s.writeReadOnly(w)
		return
	}
	id := r.PathValue("id")
	if _, ok := s.index.Lookup(id); ok {
		writeError(w, http.StatusForbidden, "corpus projects are immutable", nil)
		return
	}
	deleted, derr := s.store.Delete(id)
	if derr != nil {
		// The tombstone did not land and the entry stays live: 503 when
		// the disk is full or read-only, 500 otherwise — never "deleted".
		s.writeSubmitError(w, derr)
		return
	}
	if !deleted {
		writeError(w, http.StatusNotFound, "unknown project id "+id, nil)
		return
	}
	s.aggMu.Lock()
	s.agg.leave(id)
	s.aggMu.Unlock()
	writeJSON(w, http.StatusOK, deleteWire{SchemaVersion: APISchemaVersion, ID: id, Status: "deleted"})
}

// statsRendered returns the pre-rendered stats document, re-rendered
// from the group sizes at most once per aggregate epoch.
func (s *Server) statsRendered() renderEntry {
	s.aggMu.Lock()
	defer s.aggMu.Unlock()
	return s.agg.statsDoc(s.corpus.Len())
}

// patternsRendered returns the pre-rendered patterns document,
// re-rendering only the groups that changed, at most once per aggregate
// epoch.
func (s *Server) patternsRendered() renderEntry {
	s.aggMu.Lock()
	defer s.aggMu.Unlock()
	return s.agg.patternsDoc()
}

// handleCorpusStats is GET /v1/corpus/stats: the corpus baseline plus
// every live submitted project, tallied by pattern — served from the
// epoch-versioned pre-rendered document.
func (s *Server) handleCorpusStats(w http.ResponseWriter, r *http.Request) {
	s.serveRendered(w, r, s.statsRendered(), "corpus", true)
}

// handleCorpusPatterns is GET /v1/corpus/patterns: pattern groups over
// the corpus baseline plus every live submitted project, served the same
// way.
func (s *Server) handleCorpusPatterns(w http.ResponseWriter, r *http.Request) {
	s.serveRendered(w, r, s.patternsRendered(), "corpus", true)
}

// handleMetrics is GET /metrics: the process's telemetry report JSON
// (schema_version'd; see internal/telemetry). The report's store block
// aggregates the result store's tiers; the faults list counts every
// injected fault that fired, in any handler, store or pipeline site.
// The report is rendered fully before any header is written, so an
// encoding failure surfaces as a clean 500 instead of a truncated 200.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.render.renderGauges()
	data, err := renderJSON(s.tel.Snapshot())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error(), nil)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// Command benchserve load-tests the HTTP analysis service
// (internal/server) over real loopback sockets and writes the results as
// JSON, so every PR leaves a comparable serving-performance record
// behind (the cmd/benchpipe counterpart for the service layer). All
// traffic is driven through the public schemaevoclient package, so the
// measured path is exactly what an external consumer runs — including
// the client's retry machinery, which must stay silent against a
// healthy service (any retry sleep would show up as a latency outlier).
//
// Six phases are measured:
//
//   - cold: every request is a first-time submission of a distinct DDL
//     history — each one executes the full analysis pipeline;
//   - warm: the same histories are resubmitted for several rounds — every
//     request is answered from the result store's hot tier;
//   - get: every stored project is fetched by ID for several rounds —
//     the zero-copy read path (pre-rendered body, one write, no
//     marshalling);
//   - get304: the same GETs revalidate with If-None-Match — the server
//     answers 304 with zero body bytes;
//   - restart: the server is shut down and a fresh one is opened over the
//     same persistent store directory; the same histories are resubmitted
//     once — every request is answered from the recovered disk tier with
//     zero re-analyses;
//   - batch: the same histories stream through one NDJSON batch-ingest
//     call against the restarted server — the aggregate-throughput shape
//     of the same all-hits workload.
//
// Each phase records p50/p99/mean latency and throughput (the batch
// phase is one streamed request, so only mean and throughput apply);
// the headline ratios are cold p50 over warm p50 (the memoization win a
// duplicate-heavy workload sees) and cold p50 over get p50 (the
// render-cache win a read-heavy workload sees).
//
// Usage:
//
//	benchserve                         # 64 projects, 8 workers, writes BENCH_serve.json
//	benchserve -projects 128 -c 16 -rounds 3 -out bench.json
//	benchserve -render-bytes=-1        # render cache disabled (pre-change baseline)
//	benchserve -check                  # exit 1 unless the cache tiers pay off (CI smoke)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"schemaevo/internal/server"
	"schemaevo/internal/synth"
	"schemaevo/internal/telemetry"
	"schemaevo/schemaevoclient"
)

// phase is one measured workload in the emitted JSON.
type phase struct {
	Name     string  `json:"name"`
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"`
	P50Us    float64 `json:"p50_us"`
	P99Us    float64 `json:"p99_us"`
	MeanUs   float64 `json:"mean_us"`
	RPS      float64 `json:"rps"`
}

// report is the full BENCH_serve.json document.
type report struct {
	GeneratedBy string  `json:"generated_by"`
	Date        string  `json:"date"`
	Seed        int64   `json:"seed"`
	Projects    int     `json:"projects"`
	Concurrency int     `json:"concurrency"`
	WarmRounds  int     `json:"warm_rounds"`
	Cores       int     `json:"cores"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Phases      []phase `json:"phases"`
	// SpeedupWarmVsCold is cold p50 over warm p50 (higher is better; > 1
	// means the result store is paying off).
	SpeedupWarmVsCold float64 `json:"speedup_warm_vs_cold"`
	// SpeedupGetVsCold is cold p50 over get p50: the zero-copy read
	// path's win over a full analysis.
	SpeedupGetVsCold float64 `json:"speedup_get_vs_cold"`
	// RenderHitRate is the render cache's hit rate during the get phase
	// (1.0 = every GET served pre-rendered bytes); 0 when the cache is
	// disabled.
	RenderHitRate float64 `json:"render_hit_rate"`
	// NotModified304 counts get304-phase requests answered 304.
	NotModified304 int64 `json:"not_modified_304"`
	// PipelineRuns is the server's execution counter after both phases;
	// it must equal Projects — warm traffic never recomputes.
	PipelineRuns int64 `json:"pipeline_runs"`
	// RestartRuns is the restarted server's execution counter after the
	// restart phase; it must be 0 — recovery alone serves the set.
	RestartRuns int64 `json:"restart_runs"`
	// Previous summarizes the artifact this run replaced, so the
	// before/after trajectory of a performance change is readable from the
	// artifact alone.
	Previous *priorSummary `json:"previous,omitempty"`
}

// priorSummary preserves the replaced artifact's headline numbers.
type priorSummary struct {
	Date              string  `json:"date"`
	Seed              int64   `json:"seed"`
	Phases            []phase `json:"phases"`
	SpeedupWarmVsCold float64 `json:"speedup_warm_vs_cold"`
}

// summarizePrior reads the artifact about to be replaced and trims it to
// its headline numbers; a missing or unreadable file yields nil.
func summarizePrior(path string) *priorSummary {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var old report
	if err := json.Unmarshal(data, &old); err != nil || len(old.Phases) == 0 {
		return nil
	}
	return &priorSummary{
		Date:              old.Date,
		Seed:              old.Seed,
		Phases:            old.Phases,
		SpeedupWarmVsCold: old.SpeedupWarmVsCold,
	}
}

func main() {
	var (
		projects    = flag.Int("projects", 64, "distinct submission histories (cold-phase requests)")
		conc        = flag.Int("c", 8, "concurrent client workers")
		rounds      = flag.Int("rounds", 5, "warm/get-phase passes over the project set")
		seed        = flag.Int64("seed", 1, "workload generator seed")
		out         = flag.String("out", "BENCH_serve.json", "output JSON path")
		renderBytes = flag.Int64("render-bytes", 0, "render-cache budget in bytes (0 default, negative disables — the pre-change baseline)")
		check       = flag.Bool("check", false, "exit 1 unless every cache tier pays off (CI smoke)")
	)
	flag.Parse()
	if err := run(*projects, *conc, *rounds, *seed, *out, *renderBytes, *check); err != nil {
		fmt.Fprintln(os.Stderr, "benchserve:", err)
		os.Exit(1)
	}
}

// workload derives the distinct submission payloads from the seeded
// synthesizer (generation is excluded from every timing).
func workload(n int, seed int64) ([][]byte, error) {
	c, err := synth.RandomCorpus(n, seed)
	if err != nil {
		return nil, err
	}
	payloads := make([][]byte, 0, n)
	for _, p := range c.Projects {
		data, err := json.Marshal(p.Repo)
		if err != nil {
			return nil, err
		}
		payloads = append(payloads, data)
	}
	return payloads, nil
}

// firePhase drives the payload sequence through conc workers submitting
// via the public client and returns per-request latencies, the set of
// returned project IDs (first occurrence order is not preserved), the
// error count, and wall-clock elapsed.
func firePhase(cl *schemaevoclient.Client, payloads [][]byte, conc int) ([]time.Duration, []string, int, time.Duration) {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		lats = make([]time.Duration, 0, len(payloads))
		ids  = make([]string, 0, len(payloads))
		errs int
		jobs = make(chan []byte)
	)
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for body := range jobs {
				t0 := time.Now()
				p, err := cl.Submit(context.Background(), body)
				lat := time.Since(t0)
				mu.Lock()
				if err == nil {
					lats = append(lats, lat)
					ids = append(ids, p.ID)
				} else {
					errs++
				}
				mu.Unlock()
			}
		}()
	}
	for _, p := range payloads {
		jobs <- p
	}
	close(jobs)
	wg.Wait()
	return lats, ids, errs, time.Since(start)
}

// fireGets drives rounds passes of GET-by-ID through conc workers. When
// etags is non-nil it maps each ID to the validator to revalidate with,
// and a response other than 304 counts as an error — the conditional
// phase measures the zero-body path, so a full 200 means the tier is
// not working.
func fireGets(cl *schemaevoclient.Client, ids []string, etags map[string]string, conc, rounds int) ([]time.Duration, int, time.Duration) {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		lats = make([]time.Duration, 0, rounds*len(ids))
		errs int
		jobs = make(chan string)
	)
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range jobs {
				var err error
				t0 := time.Now()
				if etags == nil {
					_, err = cl.Get(context.Background(), id)
				} else {
					var notModified bool
					_, _, notModified, err = cl.GetConditional(context.Background(), id, etags[id])
					if err == nil && !notModified {
						err = fmt.Errorf("conditional GET %s returned a full body", id)
					}
				}
				lat := time.Since(t0)
				mu.Lock()
				if err == nil {
					lats = append(lats, lat)
				} else {
					errs++
				}
				mu.Unlock()
			}
		}()
	}
	for r := 0; r < rounds; r++ {
		for _, id := range ids {
			jobs <- id
		}
	}
	close(jobs)
	wg.Wait()
	return lats, errs, time.Since(start)
}

// percentile returns the nearest-rank q-th percentile of sorted
// latencies.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// summarize folds one phase's latencies into the wire form.
func summarize(name string, lats []time.Duration, errs int, elapsed time.Duration) phase {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	p := phase{Name: name, Requests: len(lats) + errs, Errors: errs}
	if len(lats) > 0 {
		p.P50Us = float64(percentile(lats, 0.50).Nanoseconds()) / 1e3
		p.P99Us = float64(percentile(lats, 0.99).Nanoseconds()) / 1e3
		p.MeanUs = float64(sum.Nanoseconds()) / float64(len(lats)) / 1e3
	}
	if elapsed > 0 {
		p.RPS = float64(len(lats)) / elapsed.Seconds()
	}
	return p
}

func run(projects, conc, rounds int, seed int64, out string, renderBytes int64, check bool) error {
	payloads, err := workload(projects, seed)
	if err != nil {
		return err
	}

	// One in-process server on a real loopback socket: the measured path
	// includes HTTP serialization and the kernel, exactly what a client
	// sees.
	// MaxConcurrent matches the generator's worker count: this measures
	// request latency, not backpressure (the 429 path has its own tests).
	storeDir, err := os.MkdirTemp("", "benchserve-store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(storeDir)
	tel := telemetry.New()
	srv, err := server.New(context.Background(), server.Config{
		MaxConcurrent: conc,
		LRUEntries:    2 * projects,
		StoreDir:      storeDir,
		RenderBytes:   renderBytes,
		Telemetry:     tel,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)

	// One attempt per call: a benchmark must surface service errors in
	// its error counts, not absorb them into retry-inflated latencies.
	httpClient := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conc,
		MaxIdleConnsPerHost: conc,
	}}
	cl := schemaevoclient.New(schemaevoclient.Config{
		BaseURL:     "http://" + ln.Addr().String(),
		HTTPClient:  httpClient,
		MaxAttempts: 1,
	})

	coldLats, ids, coldErrs, coldElapsed := firePhase(cl, payloads, conc)

	warm := make([][]byte, 0, rounds*projects)
	for i := 0; i < rounds; i++ {
		warm = append(warm, payloads...)
	}
	warmLats, _, warmErrs, warmElapsed := firePhase(cl, warm, conc)

	// Get phase: the zero-copy read path, measured over a render-cache
	// hit-rate window so the check can assert the cache actually served.
	preGet := tel.Snapshot().Render
	getLats, getErrs, getElapsed := fireGets(cl, ids, nil, conc, rounds)
	postGet := tel.Snapshot().Render
	var renderHitRate float64
	if lookups := (postGet.Hits - preGet.Hits) + (postGet.Misses - preGet.Misses); lookups > 0 {
		renderHitRate = float64(postGet.Hits-preGet.Hits) / float64(lookups)
	}

	// Get304 phase: collect each project's validator once (untimed),
	// then revalidate for the same number of rounds — every answer must
	// be a zero-body 304.
	etags := make(map[string]string, len(ids))
	for _, id := range ids {
		_, etag, _, err := cl.GetConditional(context.Background(), id, "")
		if err != nil {
			return fmt.Errorf("collecting validators: %w", err)
		}
		etags[id] = etag
	}
	pre304 := tel.Snapshot().Render.NotModified
	get304Lats, get304Errs, get304Elapsed := fireGets(cl, ids, etags, conc, rounds)
	notModified := tel.Snapshot().Render.NotModified - pre304

	// Restart phase: tear the process-equivalent down (listener and
	// store) and recover a fresh server from the same directory. Every
	// resubmission must be served from the recovered disk tier.
	hs.Close()
	if err := srv.Close(); err != nil {
		return err
	}
	srv2, err := server.New(context.Background(), server.Config{
		MaxConcurrent: conc,
		LRUEntries:    2 * projects,
		StoreDir:      storeDir,
		RenderBytes:   renderBytes,
		Telemetry:     telemetry.New(),
	})
	if err != nil {
		return err
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs2 := &http.Server{Handler: srv2}
	go hs2.Serve(ln2)
	defer hs2.Close()
	defer srv2.Close()
	cl2 := schemaevoclient.New(schemaevoclient.Config{
		BaseURL:     "http://" + ln2.Addr().String(),
		HTTPClient:  httpClient,
		MaxAttempts: 1,
	})
	restartLats, _, restartErrs, restartElapsed := firePhase(cl2, payloads, conc)

	// Batch phase: the same all-hits workload as one streamed NDJSON
	// ingest. One request, so per-line percentiles do not apply; mean
	// and throughput carry the signal.
	batchStart := time.Now()
	batchRes, err := cl2.BatchIngest(context.Background(), payloads)
	batchElapsed := time.Since(batchStart)
	if err != nil {
		return fmt.Errorf("batch phase: %w", err)
	}
	batchPhase := phase{Name: "batch", Requests: len(batchRes.Lines), Errors: batchRes.Errors}
	if batchRes.OK > 0 && batchElapsed > 0 {
		batchPhase.MeanUs = float64(batchElapsed.Nanoseconds()) / float64(batchRes.OK) / 1e3
		batchPhase.RPS = float64(batchRes.OK) / batchElapsed.Seconds()
	}

	rep := report{
		GeneratedBy:    "cmd/benchserve",
		Date:           time.Now().UTC().Format("2006-01-02"),
		Seed:           seed,
		Projects:       projects,
		Concurrency:    conc,
		WarmRounds:     rounds,
		Cores:          runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		PipelineRuns:   srv.Analyses(),
		RestartRuns:    srv2.Analyses() + srv2.Incrementals(),
		RenderHitRate:  renderHitRate,
		NotModified304: notModified,
		Phases: []phase{
			summarize("cold", coldLats, coldErrs, coldElapsed),
			summarize("warm", warmLats, warmErrs, warmElapsed),
			summarize("get", getLats, getErrs, getElapsed),
			summarize("get304", get304Lats, get304Errs, get304Elapsed),
			summarize("restart", restartLats, restartErrs, restartElapsed),
			batchPhase,
		},
	}
	if rep.Phases[1].P50Us > 0 {
		rep.SpeedupWarmVsCold = rep.Phases[0].P50Us / rep.Phases[1].P50Us
	}
	if rep.Phases[2].P50Us > 0 {
		rep.SpeedupGetVsCold = rep.Phases[0].P50Us / rep.Phases[2].P50Us
	}

	rep.Previous = summarizePrior(out)
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	for _, p := range rep.Phases {
		fmt.Printf("%-7s %6d reqs  p50 %8.0fµs  p99 %8.0fµs  %8.0f req/s  (%d errors)\n",
			p.Name, p.Requests, p.P50Us, p.P99Us, p.RPS, p.Errors)
	}
	fmt.Printf("wrote %s (warm speedup %.1fx, get speedup %.1fx, render hit rate %.2f, %d pipeline runs)\n",
		out, rep.SpeedupWarmVsCold, rep.SpeedupGetVsCold, rep.RenderHitRate, rep.PipelineRuns)

	if check {
		cold, warmP, get, get304, restart, batchP := rep.Phases[0], rep.Phases[1], rep.Phases[2], rep.Phases[3], rep.Phases[4], rep.Phases[5]
		conditionalReqs := int64(rounds * len(ids))
		switch {
		case cold.Errors > 0 || warmP.Errors > 0 || get.Errors > 0 || get304.Errors > 0 || restart.Errors > 0 || batchP.Errors > 0:
			return fmt.Errorf("check: %d cold / %d warm / %d get / %d get304 / %d restart / %d batch requests failed",
				cold.Errors, warmP.Errors, get.Errors, get304.Errors, restart.Errors, batchP.Errors)
		case batchRes.OK != projects || batchRes.Attempts != 1:
			return fmt.Errorf("check: batch ingest acknowledged %d/%d lines in %d attempts — the stream did not complete cleanly",
				batchRes.OK, projects, batchRes.Attempts)
		case rep.PipelineRuns != int64(projects):
			return fmt.Errorf("check: %d pipeline runs for %d distinct projects — warm traffic recomputed", rep.PipelineRuns, projects)
		case rep.RestartRuns != 0:
			return fmt.Errorf("check: restarted server ran %d analyses — recovery did not serve the persisted set", rep.RestartRuns)
		case warmP.P50Us >= cold.P50Us:
			return fmt.Errorf("check: warm p50 %.0fµs is not below cold p50 %.0fµs", warmP.P50Us, cold.P50Us)
		case get.P50Us >= cold.P50Us:
			return fmt.Errorf("check: get p50 %.0fµs is not below cold p50 %.0fµs", get.P50Us, cold.P50Us)
		case renderBytes >= 0 && rep.RenderHitRate < 0.9:
			return fmt.Errorf("check: render hit rate %.2f during the get phase, want >= 0.9", rep.RenderHitRate)
		case renderBytes >= 0 && rep.NotModified304 != conditionalReqs:
			return fmt.Errorf("check: %d of %d conditional GETs answered 304 — revalidation served full bodies", rep.NotModified304, conditionalReqs)
		case restart.P50Us >= cold.P50Us:
			return fmt.Errorf("check: restart p50 %.0fµs is not below cold p50 %.0fµs", restart.P50Us, cold.P50Us)
		}
		fmt.Println("check: ok (warm/get/restart p50 < cold p50, render cache served, 304s zero-body, batch stream clean, no recompute, no errors)")
	}
	return nil
}

// Command schemaevod serves the schema-evolution analysis toolchain over
// HTTP: submit DDL commit histories for pattern analysis, look results up
// by content-hash ID, query corpus-wide pattern statistics, and scrape
// run telemetry. See internal/server for the endpoint semantics and
// DESIGN.md §9 for the backpressure and drain contract.
//
// Usage:
//
//	schemaevod                                # empty corpus, 127.0.0.1:8080
//	schemaevod -corpus corpus.json            # preload a serialized corpus
//	schemaevod -synth 151 -seed 1             # preload a synthetic corpus
//	schemaevod -addr 127.0.0.1:0              # pick a free port (printed)
//	schemaevod -store-dir /var/lib/schemaevo  # persistent project store (survives restarts)
//	schemaevod -store-shards 16 -hot-bytes 67108864
//	schemaevod -render-bytes 134217728        # 128 MiB pre-rendered response cache
//	schemaevod -scrub-interval 1m -disk-low 104857600  # self-healing knobs
//	schemaevod -max-concurrent 8 -request-timeout 10s
//	schemaevod -fault-seed 7 -fault-rate 0.2  # chaos mode
//
// On SIGINT/SIGTERM the server drains: in-flight requests complete, new
// ones are answered 503 + Retry-After, and the process exits 0 once idle
// (or after -drain-timeout, whichever is first).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"schemaevo/internal/corpus"
	"schemaevo/internal/faultinject"
	"schemaevo/internal/server"
	"schemaevo/internal/synth"
	"schemaevo/internal/telemetry"
)

// options collects the command-line configuration.
type options struct {
	addr           string
	corpusPath     string
	synthN         int
	seed           int64
	storeDir       string
	storeShards    int
	analysisShards int
	dialect        string
	hotBytes       int64
	maxConcurrent  int
	requestTimeout time.Duration
	lruEntries     int
	renderBytes    int64
	retryAfter     time.Duration
	drainTimeout   time.Duration
	scrubInterval  time.Duration
	diskLow        int64
	faultSeed      int64
	faultRate      float64
	faultSites     string
	faultKinds     string
	faultDelay     time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address (use :0 to pick a free port)")
	flag.StringVar(&o.corpusPath, "corpus", "", "preload a serialized corpus (JSON, see corpusgen)")
	flag.IntVar(&o.synthN, "synth", 0, "preload a synthetic corpus of this many projects (0 disables; with -corpus, -corpus wins)")
	flag.Int64Var(&o.seed, "seed", 1, "synthetic corpus generator seed (with -synth)")
	flag.StringVar(&o.storeDir, "store-dir", "", "persistent project-store directory: submitted sources and results survive restarts (empty = memory only)")
	flag.IntVar(&o.storeShards, "store-shards", 0, "segment-file count for a new store directory (0 = 8; existing directories keep their count)")
	flag.IntVar(&o.analysisShards, "analysis-shards", 0, "analysis pipeline shard count (0 = GOMAXPROCS; 1 = sequential path)")
	flag.StringVar(&o.dialect, "dialect", "", "SQL dialect for every analysis: auto, generic, mysql, postgres or sqlite (default generic)")
	flag.Int64Var(&o.hotBytes, "hot-bytes", 0, "in-memory hot-tier byte budget (0 = 256 MiB)")
	flag.IntVar(&o.maxConcurrent, "max-concurrent", 0, "max concurrently executing submissions before 429 (0 = 2×GOMAXPROCS)")
	flag.DurationVar(&o.requestTimeout, "request-timeout", 30*time.Second, "per-request deadline")
	flag.IntVar(&o.lruEntries, "lru", 1024, "in-memory result store capacity (entries)")
	flag.Int64Var(&o.renderBytes, "render-bytes", 0, "pre-rendered response cache byte budget (0 = 64 MiB, negative disables)")
	flag.DurationVar(&o.retryAfter, "retry-after", time.Second, "backoff hint advertised on 429/503 responses")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "max time to wait for in-flight requests on shutdown")
	flag.DurationVar(&o.scrubInterval, "scrub-interval", 30*time.Second, "background store-scrubber pass interval (0 disables; with -store-dir)")
	flag.Int64Var(&o.diskLow, "disk-low", 0, "free-space floor in bytes: below it the store flips read-only until space recovers (0 disables)")
	flag.Int64Var(&o.faultSeed, "fault-seed", 0, "chaos mode: inject deterministic faults with this seed (0 disables)")
	flag.Float64Var(&o.faultRate, "fault-rate", 0.05, "chaos mode: fraction of fault sites that fire (with -fault-seed)")
	flag.StringVar(&o.faultSites, "fault-sites", "", "chaos mode: comma-separated site allowlist (empty = every site)")
	flag.StringVar(&o.faultKinds, "fault-kinds", "", "chaos mode: comma-separated kinds (io-error,corrupt,delay,panic; empty = all)")
	flag.DurationVar(&o.faultDelay, "fault-delay", time.Millisecond, "chaos mode: stall applied by delay faults")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "schemaevod:", err)
		os.Exit(1)
	}
}

// parseFaultKinds maps the CLI's comma list to injector kinds.
func parseFaultKinds(list string) ([]faultinject.Kind, error) {
	if list == "" {
		return nil, nil
	}
	var out []faultinject.Kind
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, k := range faultinject.AllKinds {
			if k.String() == name {
				out = append(out, k)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown fault kind %q", name)
		}
	}
	return out, nil
}

// loadCorpus resolves the -corpus/-synth flags into the corpus to serve.
func loadCorpus(o options) (*corpus.Corpus, error) {
	switch {
	case o.corpusPath != "":
		return corpus.LoadFile(o.corpusPath)
	case o.synthN > 0:
		return synth.RandomCorpus(o.synthN, o.seed)
	}
	return &corpus.Corpus{}, nil
}

func run(o options) error {
	c, err := loadCorpus(o)
	if err != nil {
		return err
	}
	var fault *faultinject.Injector
	if o.faultSeed != 0 {
		kinds, err := parseFaultKinds(o.faultKinds)
		if err != nil {
			return err
		}
		var sites []string
		if o.faultSites != "" {
			sites = strings.Split(o.faultSites, ",")
		}
		fault = faultinject.New(faultinject.Config{
			Seed: o.faultSeed, Rate: o.faultRate, Kinds: kinds, Sites: sites, Delay: o.faultDelay,
		})
		fmt.Fprintf(os.Stderr, "schemaevod: chaos mode (seed %d, rate %.2f)\n", o.faultSeed, o.faultRate)
	}

	srv, err := server.New(context.Background(), server.Config{
		Corpus:         c,
		StoreDir:       o.storeDir,
		StoreShards:    o.storeShards,
		AnalysisShards: o.analysisShards,
		Dialect:        o.dialect,
		HotBytes:       o.hotBytes,
		MaxConcurrent:  o.maxConcurrent,
		RequestTimeout: o.requestTimeout,
		LRUEntries:     o.lruEntries,
		RenderBytes:    o.renderBytes,
		RetryAfter:     o.retryAfter,
		ScrubInterval:  o.scrubInterval,
		DiskLowBytes:   o.diskLow,
		Telemetry:      telemetry.New(),
		Fault:          fault,
	})
	if err != nil {
		return err
	}

	// Install the signal handler before the address is announced: a
	// client that reads the line may send SIGTERM at once, and an
	// unhandled one kills the process without draining the store.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	// The e2e harness parses this line to find the bound port; keep its
	// shape stable.
	fmt.Printf("schemaevod: serving on http://%s (%d corpus projects)\n", ln.Addr(), c.Len())

	// ReadHeaderTimeout bounds header dribbling; no whole-request
	// ReadTimeout because the batch endpoint legitimately streams its body
	// for longer than any fixed budget (it bounds its own reads per line
	// and on drain).
	hs := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "schemaevod: %v: draining (in-flight %d)\n", sig, srv.InFlight())
		// Flip the drain gate first so requests on live keep-alive
		// connections get 503 immediately, then let Shutdown close the
		// listener and wait for the in-flight set.
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		if err := srv.Close(); err != nil {
			return fmt.Errorf("store close: %w", err)
		}
		fmt.Fprintln(os.Stderr, "schemaevod: drained, exiting")
		return nil
	case err := <-errCh:
		srv.Close()
		if err != nil && err != http.ErrServerClosed {
			return err
		}
		return nil
	}
}

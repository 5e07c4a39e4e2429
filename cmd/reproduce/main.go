// Command reproduce regenerates every table and figure of the paper's
// evaluation from the calibrated synthetic corpus, printing them in paper
// order. With -ablation it also runs the extension analyses (label
// sensitivity, tree depth, unsupervised cross-check, co-evolution, query
// impact, table rigidity, prediction cross-validation).
//
// Usage:
//
//	reproduce                 # all paper artifacts, seed 1
//	reproduce -seed 7         # a different corpus instance
//	reproduce -ablation       # include the ablations and extensions
//	reproduce -only fig7      # a single artifact (t1 t2 fig1..fig7 s34 s52 s61 s62 s63)
//	reproduce -out artifacts  # also write every artifact to files (txt + svg)
//	reproduce -cache DIR      # memoize per-project analysis under DIR
//	reproduce -nocache        # disable the analysis cache
//	reproduce -project-timeout 30s   # quarantine projects stuck longer than this
//	reproduce -max-failures 0.25     # tolerate losing up to 25% of the corpus
//	reproduce -fault-seed 7          # chaos mode: inject deterministic faults
//	reproduce -telemetry-json t.json # write the run's telemetry report (stable JSON)
//	reproduce -telemetry-trace t.jsonl  # write per-project spans as JSONL
//	reproduce -pprof 127.0.0.1:6060  # serve net/http/pprof + expvar + live telemetry
//
// The corpus analysis runs through the staged concurrent pipeline with a
// content-hash result cache (default: a "schemaevo" directory under the
// user cache dir), so re-runs of the same seed skip history and metrics
// recomputation entirely; the printed pipeline statistics show the cache
// hits.
//
// The run is fault-tolerant: a project whose analysis fails, panics, or
// exceeds -project-timeout is dropped and itemized in a printed
// degradation report instead of aborting the reproduction — mirroring the
// paper's own study, which proceeded with 151 of 195 mined repositories.
// -max-failures bounds the acceptable loss as a fraction of the corpus
// (default 0.25, roughly the paper's survival rate); beyond it the run
// fails. Exit codes: 0 clean, 1 error, 2 completed but degraded.
// -fault-seed enables the deterministic chaos harness (with -fault-rate)
// for exercising exactly these paths.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"schemaevo/internal/experiments"
	"schemaevo/internal/faultinject"
	"schemaevo/internal/pipeline"
	"schemaevo/internal/report"
	"schemaevo/internal/telemetry"
)

// config is the parsed command line.
type config struct {
	seed           int64
	ablation       bool
	only           string
	outDir         string
	cacheDir       string
	projectTimeout time.Duration
	maxFailures    float64
	faultSeed      int64
	faultRate      float64
	telemetryJSON  string
	telemetryTrace string
	pprofAddr      string
}

func main() {
	var (
		cfg      config
		cacheDir = flag.String("cache", "", "analysis cache directory (default: <user-cache>/schemaevo)")
		nocache  = flag.Bool("nocache", false, "disable the analysis cache")
		only     = flag.String("only", "", "run a single artifact (t1,t2,fig1..fig7,s34,s52,s61,s62,s63)")
	)
	flag.Int64Var(&cfg.seed, "seed", 1, "corpus generator seed")
	flag.BoolVar(&cfg.ablation, "ablation", false, "also run the ablation analyses")
	flag.StringVar(&cfg.outDir, "out", "", "directory to write artifact files into")
	flag.DurationVar(&cfg.projectTimeout, "project-timeout", 0, "per-project analysis deadline; stuck projects are quarantined (0 disables)")
	flag.Float64Var(&cfg.maxFailures, "max-failures", 0.25, "maximum tolerated fraction of lost projects before the run fails")
	flag.Int64Var(&cfg.faultSeed, "fault-seed", 0, "chaos harness: inject deterministic faults with this seed (0 disables)")
	flag.Float64Var(&cfg.faultRate, "fault-rate", 0.05, "chaos harness: fraction of fault sites that fire (with -fault-seed)")
	flag.StringVar(&cfg.telemetryJSON, "telemetry-json", "", "write the run's telemetry report (stage timings, cache counters, degradation events) to this path")
	flag.StringVar(&cfg.telemetryTrace, "telemetry-trace", "", "write per-project trace spans as JSONL to this path")
	flag.StringVar(&cfg.pprofAddr, "pprof", "", "serve net/http/pprof, expvar and live telemetry on this address (e.g. 127.0.0.1:6060)")
	flag.Parse()
	cfg.only = strings.ToLower(*only)
	cfg.cacheDir = *cacheDir
	if cfg.cacheDir == "" && !*nocache {
		cfg.cacheDir = defaultCacheDir()
	}
	if *nocache {
		cfg.cacheDir = ""
	}
	degraded, err := run(cfg)
	switch {
	case err != nil:
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(1)
	case degraded:
		fmt.Fprintln(os.Stderr, "reproduce: completed degraded — some projects were skipped (see the degradation report above)")
		os.Exit(2)
	}
}

// defaultCacheDir picks the per-user cache location; empty (= caching
// disabled) when the platform reports no user cache dir.
func defaultCacheDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(base, "schemaevo")
}

// run executes the reproduction; degraded reports that it completed but
// lost projects along the way (exit code 2).
func run(cfg config) (degraded bool, err error) {
	seed := cfg.seed
	fmt.Printf("Generating the calibrated corpus (seed %d) and running the full pipeline...\n\n", seed)
	opts := pipeline.Options{CacheDir: cfg.cacheDir, ProjectTimeout: cfg.projectTimeout}
	// Chaos mode needs a collector too: it is the one tally of fired
	// faults, read back for the chaos line.
	var tel *telemetry.Collector
	if cfg.telemetryJSON != "" || cfg.telemetryTrace != "" || cfg.pprofAddr != "" || cfg.faultSeed != 0 {
		tel = telemetry.New()
		opts.Telemetry = tel
	}
	if cfg.pprofAddr != "" {
		addr, err := telemetry.Serve(cfg.pprofAddr, tel)
		if err != nil {
			return false, err
		}
		fmt.Printf("pprof: serving /debug/pprof, /debug/vars and /debug/telemetry on http://%s\n\n", addr)
	}
	if cfg.faultSeed != 0 {
		opts.Fault = faultinject.New(faultinject.Config{Seed: cfg.faultSeed, Rate: cfg.faultRate})
		opts.Fault.SetObserver(tel.Fault)
		fmt.Printf("chaos: injecting deterministic faults (seed %d, rate %.2f)\n\n", cfg.faultSeed, cfg.faultRate)
	}
	ctx, stats, err := experiments.NewPaperContextTolerant(seed, opts)
	if err != nil {
		return false, err
	}
	fmt.Printf("%s\n", stats)
	if rep := stats.Degradation; rep.Degraded() {
		degraded = true
		fmt.Print(rep.Render())
		if rep.LossFraction() > cfg.maxFailures {
			return true, fmt.Errorf("lost %.1f%% of the corpus, above the -max-failures bound of %.0f%%",
				rep.LossFraction()*100, cfg.maxFailures*100)
		}
		fmt.Printf("continuing with the %d surviving projects\n", ctx.Corpus.Len())
	}
	if opts.Fault != nil {
		fmt.Printf("chaos: %s\n", faultSummary(tel.Snapshot().Faults))
	}
	fmt.Printf("Corpus: %d projects with lifetime > 12 months.\n\n", ctx.Corpus.Len())
	if err := emitArtifacts(cfg, ctx); err != nil {
		return degraded, err
	}
	return degraded, writeTelemetry(cfg, tel, stats.Spans)
}

// faultSummary renders the fired-fault tallies as one sorted line.
func faultSummary(faults []telemetry.EventCount) string {
	if len(faults) == 0 {
		return "no faults injected"
	}
	parts := make([]string, len(faults))
	for i, f := range faults {
		parts[i] = fmt.Sprintf("%s×%d", f.Name, f.Count)
	}
	return strings.Join(parts, " ")
}

// writeTelemetry prints the run's telemetry digest and lands the report and
// trace files requested on the command line. No-op without a collector.
func writeTelemetry(cfg config, tel *telemetry.Collector, spans []telemetry.Span) error {
	if tel == nil {
		return nil
	}
	fmt.Print(tel.Snapshot().Summary())
	if cfg.telemetryJSON != "" {
		f, err := os.Create(cfg.telemetryJSON)
		if err != nil {
			return err
		}
		werr := tel.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		fmt.Printf("telemetry report written to %s\n", cfg.telemetryJSON)
	}
	if cfg.telemetryTrace != "" {
		f, err := os.Create(cfg.telemetryTrace)
		if err != nil {
			return err
		}
		werr := telemetry.WriteTraceJSONL(f, spans)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		fmt.Printf("telemetry trace written to %s\n", cfg.telemetryTrace)
	}
	return nil
}

// emitArtifacts prints (and with -out, writes) every requested artifact in
// paper order.
func emitArtifacts(cfg config, ctx *experiments.Context) error {
	seed, only, outDir, ablation := cfg.seed, cfg.only, cfg.outDir, cfg.ablation
	var err error

	var htmlRep *report.HTMLReport
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		htmlRep = report.NewHTMLReport(
			fmt.Sprintf("Time-Related Patterns of Schema Evolution — reproduction (seed %d)", seed))
	}
	want := func(key string) bool { return only == "" || only == key }
	emit := func(key, body string) error {
		fmt.Println(body)
		fmt.Println()
		if outDir == "" {
			return nil
		}
		htmlRep.AddText(key, body)
		return os.WriteFile(filepath.Join(outDir, key+".txt"), []byte(body+"\n"), 0o644)
	}

	if want("fig1") {
		f1 := experiments.Figure1(ctx)
		if err := emit("fig1", f1.Render()); err != nil {
			return err
		}
		if outDir != "" {
			if err := os.WriteFile(filepath.Join(outDir, "fig1.svg"), []byte(f1.SVG), 0o644); err != nil {
				return err
			}
			htmlRep.AddSVG("fig1 (chart)", f1.SVG)
		}
	}
	if want("t1") {
		if err := emit("t1", experiments.Table1(ctx).Render()); err != nil {
			return err
		}
	}
	if want("s34") {
		r, err := experiments.Section34(ctx)
		if err != nil {
			return err
		}
		if err := emit("s34", r.Render()); err != nil {
			return err
		}
	}
	var f2 *experiments.Figure2Result
	if want("fig2") {
		f2, err = experiments.Figure2(ctx)
		if err != nil {
			return err
		}
		if err := emit("fig2", f2.Render()); err != nil {
			return err
		}
	}
	if want("fig3") {
		f3 := experiments.Figure3(ctx)
		if err := emit("fig3", f3.Render()); err != nil {
			return err
		}
		if outDir != "" {
			for _, pattern := range experiments.Figure3Order(f3) {
				name := "fig3-" + strings.ReplaceAll(strings.ToLower(pattern.String()), " ", "-")
				if err := os.WriteFile(filepath.Join(outDir, name+".svg"), []byte(f3.SVGs[pattern]), 0o644); err != nil {
					return err
				}
				htmlRep.AddSVG("fig3: "+pattern.String(), f3.SVGs[pattern])
			}
		}
	}
	if want("fig4") {
		if err := emit("fig4", experiments.Figure4(ctx).Render()); err != nil {
			return err
		}
	}
	if want("t2") {
		if err := emit("t2", experiments.Table2(ctx).Render()); err != nil {
			return err
		}
	}
	if want("s52") {
		r, err := experiments.Section52(ctx)
		if err != nil {
			return err
		}
		if err := emit("s52", r.Render()); err != nil {
			return err
		}
	}
	if want("fig5") {
		r, err := experiments.Figure5(ctx)
		if err != nil {
			return err
		}
		if err := emit("fig5", r.Render()); err != nil {
			return err
		}
	}
	if want("fig6") {
		if err := emit("fig6", experiments.Figure6(ctx).Render()); err != nil {
			return err
		}
	}
	var f7 *experiments.Figure7Result
	if want("fig7") || want("s62") {
		f7, err = experiments.Figure7(ctx)
		if err != nil {
			return err
		}
	}
	if want("fig7") {
		if err := emit("fig7", f7.Render()); err != nil {
			return err
		}
	}
	if want("s61") {
		if err := emit("s61", experiments.Section61(ctx).Render()); err != nil {
			return err
		}
	}
	if want("s62") {
		if err := emit("s62", experiments.Section62(f7).Render()); err != nil {
			return err
		}
	}
	if want("s63") {
		if err := emit("s63", experiments.Section63(ctx).Render()); err != nil {
			return err
		}
	}

	if ablation {
		fmt.Println(strings.Repeat("=", 70))
		fmt.Println("ABLATIONS AND EXTENSIONS")
		fmt.Println(strings.Repeat("=", 70))
		fmt.Println()
		ls, err := experiments.LabelSensitivity(ctx)
		if err != nil {
			return err
		}
		if err := emit("ablation-labels", ls.Render()); err != nil {
			return err
		}
		td, err := experiments.TreeDepth(ctx)
		if err != nil {
			return err
		}
		if err := emit("ablation-tree-depth", td.Render()); err != nil {
			return err
		}
		un, err := experiments.Unsupervised(ctx, seed)
		if err != nil {
			return err
		}
		if err := emit("ablation-kmeans", un.Render()); err != nil {
			return err
		}
		co, err := experiments.CoEvolution(ctx)
		if err != nil {
			return err
		}
		if err := emit("ext-coevolution", co.Render()); err != nil {
			return err
		}
		im, err := experiments.Impact(ctx)
		if err != nil {
			return err
		}
		if err := emit("ext-query-impact", im.Render()); err != nil {
			return err
		}
		if err := emit("ext-table-rigidity", experiments.TableRigidity(ctx).Render()); err != nil {
			return err
		}
		pe, err := experiments.PredictionEval(ctx, 5, seed)
		if err != nil {
			return err
		}
		if err := emit("ext-prediction-eval", pe.Render()); err != nil {
			return err
		}
		if f2 == nil {
			f2, err = experiments.Figure2(ctx)
			if err != nil {
				return err
			}
		}
		ca, err := experiments.CorrelationAgreement(ctx, f2)
		if err != nil {
			return err
		}
		if err := emit("ext-correlation-agreement", ca.Render()); err != nil {
			return err
		}
		xd, err := experiments.CrossDialect(seed)
		if err != nil {
			return err
		}
		if err := emit("ext-dialects", xd.Render()); err != nil {
			return err
		}
	}
	if htmlRep != nil {
		path := filepath.Join(outDir, "report.html")
		if err := os.WriteFile(path, []byte(htmlRep.String()), 0o644); err != nil {
			return err
		}
		fmt.Printf("HTML report written to %s\n", path)
	}
	return nil
}

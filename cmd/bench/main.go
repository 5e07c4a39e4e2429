// Command bench is the repository's end-to-end benchmark. It runs four
// named workloads through the system's real entry points — pipeline.Run in
// worker processes, and the schemaevod binary built from this tree over
// loopback — checks every output, prints every end-to-end metric as
// `workload metric value unit`, and ends with one JSON result line.
//
// It is a module of its own (it imports the repository's internal
// packages through a replace directive), so build and run it from the
// repository root with
//
//	bash cmd/bench/run.sh -seed 1 -out result.json
//	bash cmd/bench/run.sh -workload serve-read -seed 3 -seconds 26 -trace 1
//
// or, from cmd/bench, `go run . -seed 1`. With no -workload all four run.
// -trace 1 additionally replays the same seeded inputs single-threaded
// through each layer's public functions and prints one layer table per
// workload; its result line then carries the per-layer metrics instead of
// the end-to-end ones. README.md defines every workload and metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef is one named metric with its unit and direction.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics every workload reports with tracing off. On
// the corpus workloads one op is one analyzed project and latency is the
// wall time of one pass over the corpus; on the serve workloads one op is
// one request, ops_per_s is the closed-loop saturation throughput, and
// latency is that of the workload's primary requests at the nominal rate.
// The latency tail is printed beside them (see tail).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer are the metrics a -trace 1 run reports. A layer a workload
// does not exercise reports 0.
var perLayer = []metricDef{
	// Corpus layers, per analyzed project (traced replay).
	{"fingerprint.ms_per_project", "ms", "lower"},
	{"parse.ms_per_project", "ms", "lower"},
	{"parse.allocs_per_project", "count", "lower"},
	{"assemble.ms_per_project", "ms", "lower"},
	{"assemble.allocs_per_project", "count", "lower"},
	{"measures.ms_per_project", "ms", "lower"},
	{"labels.ms_per_project", "ms", "lower"},
	{"cache.encode.ms_per_project", "ms", "lower"},
	{"cache.write.ms_per_project", "ms", "lower"},
	{"cache.load.ms_per_project", "ms", "lower"},
	{"cache.decode.ms_per_project", "ms", "lower"},
	{"cache.maps_per_pass", "count", "lower"},
	{"runtime.bg.ms_per_project", "ms", "lower"},
	{"pipeline.shards.ms_per_project", "ms", "lower"},
	{"pipeline.parallel_efficiency", "ratio", "higher"},
	{"pipeline.unattributed_ms_per_project", "ms", "lower"},
	// Serve layers, per request (traced replay).
	{"wire.decode.ms_per_op", "ms", "lower"},
	{"fingerprint.ms_per_op", "ms", "lower"},
	{"analyze.full.ms_per_op", "ms", "lower"},
	{"analyze.incr.ms_per_op", "ms", "lower"},
	{"encode.ms_per_op", "ms", "lower"},
	{"store.put.ms_per_op", "ms", "lower"},
	{"store.get.hot.ms_per_op", "ms", "lower"},
	{"store.get.disk.ms_per_op", "ms", "lower"},
	{"result.decode.ms_per_op", "ms", "lower"},
	{"source.decode.ms_per_op", "ms", "lower"},
	{"handler.other.ms_per_op", "ms", "lower"},
	{"client.ms_per_op", "ms", "lower"},
	{"transport.ms_per_op", "ms", "lower"},
	{"serve.unattributed_ms_per_op", "ms", "lower"},
	// Serve counters, as deltas of the daemon's /metrics over the run.
	{"analyze.exec", "count", "lower"},
	{"analyze.incr", "count", "lower"},
	{"store.hot_hit_rate", "ratio", "higher"},
	{"store.disk_hits", "count", "lower"},
	{"store.write_amp", "ratio", "lower"},
	{"store.compactions", "count", "lower"},
	{"store.scrub_passes", "count", "lower"},
	{"render.hit_rate", "ratio", "higher"},
	{"render.evictions", "count", "lower"},
	{"render.not_modified", "count", "higher"},
	// Load generator and environment.
	{"gen.lateness_p99_ms", "ms", "lower"},
	{"gen.queue_max", "count", "lower"},
	{"gen.queue_wait.ms_per_op", "ms", "lower"},
	{"noise.ref_ms", "ms", "lower"},
	{"noise.ref_iqr_ms", "ms", "lower"},
	{"noise.ref_drift", "ratio", "lower"},
	{"noise.steal_share", "ratio", "lower"},
}

// workloadNames lists the workloads in run order.
var workloadNames = []string{"corpus-cold", "corpus-warm", "serve-ingest", "serve-read"}

// result is what one workload run produced.
type result struct {
	Workload  string             `json:"workload"`
	Metrics   map[string]float64 `json:"metrics"`
	Tail      tail               `json:"latency_tail"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Checks    []check            `json:"checks"`
	Noise     noiseReport        `json:"noise"`
	Table     *layerTable        `json:"layer_table,omitempty"`
	Detail    any                `json:"detail,omitempty"`
}

// check is one output-correctness assertion.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

func (r *result) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return r.Failed == 0 && r.Attempted > 0
}

// config is the parsed command line plus the resolved directories.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	root    string     // repository root (holds the schemaevo go.mod)
	build   string     // build outputs, state directories and span files
	state   string     // this run's scratch state, removed on exit
	cache   *cacheArea // this run's pipeline cache directories, emptied but kept
}

// workerEnv, when set, turns the process into a corpus worker reading the
// named corpus file (see worker.go).
const workerEnv = "SCHEMAEVO_BENCH_WORKER"

func main() {
	if path := os.Getenv(workerEnv); path != "" {
		if err := runWorker(path, os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench worker:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit, so the smoke test can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+"); empty runs all")
	seed := fs.Int64("seed", 1, "input generator seed")
	seconds := fs.Float64("seconds", 26, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1 also replays the inputs through each layer and reports the per-layer metrics")
	out := fs.String("out", "", "write the full report as JSON to this file")
	scale := fs.String("scale", "full", "full, or smoke for a seconds-long functional pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := workloadNames
	if *workload != "" {
		names = nil
		for _, n := range strings.Split(*workload, ",") {
			if !slices.Contains(workloadNames, n) {
				fmt.Fprintf(stderr, "bench: unknown workload %q\n", n)
				return 2
			}
			names = append(names, n)
		}
	}
	if *scale != "full" && *scale != "smoke" {
		fmt.Fprintf(stderr, "bench: unknown scale %q\n", *scale)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	cfg := &config{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *scale == "smoke"}
	results, err := runAll(cfg, names, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	report(stdout, cfg, results)
	if *out != "" {
		if err := writeReport(*out, cfg, results); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	ok, err := resultLine(stdout, cfg, results)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// runAll prepares the environment, runs the selected workloads and tears
// everything down again, also on an interrupt.
func runAll(cfg *config, names []string, logw io.Writer) ([]*result, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	cfg.root = root
	cfg.build = filepath.Join(root, ".bench_build")
	if cfg.state, err = os.MkdirTemp(mkdirAll(filepath.Join(cfg.build, "state")), "run-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.state)
	cfg.cache = &cacheArea{dir: filepath.Join(cfg.build, "cache", filepath.Base(cfg.state))}

	// An interrupt removes the state directory too; children die with us
	// (bindLifetime) or with their pipes.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer func() {
		signal.Stop(sig)
		close(sig)
	}()
	go func() {
		if _, ok := <-sig; ok {
			os.RemoveAll(cfg.state)
			os.Exit(130)
		}
	}()

	logf := func(format string, args ...any) { fmt.Fprintf(logw, "bench: "+format+"\n", args...) }
	logf("seed %d, %s scale, %gs per workload, GOMAXPROCS %d, state on %s", cfg.seed, map[bool]string{true: "smoke", false: "full"}[cfg.smoke],
		cfg.seconds, runtime.GOMAXPROCS(0), fsTypeName(cfg.state))

	var results []*result
	var corpusNames []string
	for _, n := range names {
		if strings.HasPrefix(n, "corpus-") {
			corpusNames = append(corpusNames, n)
		}
	}
	if len(corpusNames) > 0 {
		rs, err := runCorpus(cfg, corpusNames, logf)
		if err != nil {
			return nil, err
		}
		results = append(results, rs...)
	}
	var daemon string
	for _, n := range names {
		if !strings.HasPrefix(n, "serve-") {
			continue
		}
		if daemon == "" {
			if daemon, err = buildDaemon(cfg, logf); err != nil {
				return nil, err
			}
		}
		r, err := runServe(cfg, n, daemon, logf)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", n, err)
		}
		results = append(results, r)
	}
	sort.SliceStable(results, func(i, j int) bool {
		return slices.Index(workloadNames, results[i].Workload) < slices.Index(workloadNames, results[j].Workload)
	})
	return results, nil
}

func mkdirAll(dir string) string {
	os.MkdirAll(dir, 0o755)
	return dir
}

// findRoot walks up from the working directory to the repository root:
// the directory whose go.mod declares module schemaevo.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module schemaevo\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no schemaevo module above the working directory; run from the repository")
		}
		dir = parent
	}
}

// buildDaemon builds schemaevod from the tree into the build directory.
func buildDaemon(cfg *config, logf func(string, ...any)) (string, error) {
	bin := filepath.Join(mkdirAll(filepath.Join(cfg.build, "bin")), "schemaevod")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/schemaevod")
	cmd.Dir = cfg.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building schemaevod: %v\n%s", err, out)
	}
	logf("built schemaevod in %v", time.Since(start).Round(time.Millisecond))
	return bin, nil
}

// report prints every metric as `workload metric value unit`, then each
// layer table, the noise floor and the checks that failed.
func report(w io.Writer, cfg *config, results []*result) {
	for _, r := range results {
		for _, m := range endToEnd {
			fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, m.Name, r.Metrics[m.Name], m.Unit)
		}
	}
	for _, r := range results {
		flag := ""
		if r.Noise.Noisy {
			flag = "  [noisy]"
		}
		tail := fmt.Sprintf("too few latency samples (%d) for a tail", r.Tail.Samples)
		if r.Tail.Percentile > 0 {
			tail = fmt.Sprintf("latency p%g %.4g ms of %d samples", r.Tail.Percentile, r.Tail.Ms, r.Tail.Samples)
		}
		fmt.Fprintf(w, "# %s: %d ops attempted, %d failed; %s; noise.ref_ms %.2f (IQR %.2f, drift %+.1f%%), CPU steal %.1f%%%s\n",
			r.Workload, r.Attempted, r.Failed, tail, r.Noise.RefMs, r.Noise.RefIQRMs, 100*r.Noise.Drift, 100*r.Noise.StealShare, flag)
		for _, c := range r.Checks {
			if !c.OK {
				fmt.Fprintf(w, "# %s: check %s FAILED: %s\n", r.Workload, c.Name, c.Detail)
			}
		}
	}
	if cfg.trace {
		for _, r := range results {
			if r.Table != nil {
				r.Table.print(w, r.Workload)
			}
		}
	}
}

// writeReport writes the full report, including per-workload detail.
func writeReport(path string, cfg *config, results []*result) error {
	doc := struct {
		Seed       int64     `json:"seed"`
		Seconds    float64   `json:"seconds"`
		Trace      bool      `json:"trace"`
		Smoke      bool      `json:"smoke"`
		GOMAXPROCS int       `json:"gomaxprocs"`
		CPUs       int       `json:"cpus"`
		Results    []*result `json:"results"`
	}{cfg.seed, cfg.seconds, cfg.trace, cfg.smoke, runtime.GOMAXPROCS(0), runtime.NumCPU(), results}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// resultLine prints the final machine-readable line: the end-to-end
// metrics (or, with -trace 1, the per-layer ones) of the workload run;
// when several ran, each name is prefixed with its workload and a slash.
// It reports whether every output check passed, and prints nothing if a
// metric is not a number.
func resultLine(w io.Writer, cfg *config, results []*result) (bool, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, pick := endToEnd, func(r *result) map[string]float64 { return r.Metrics }
	if cfg.trace {
		defs, pick = perLayer, func(r *result) map[string]float64 { return r.Layers }
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(results) > 0, Metrics: map[string]value{}}
	for _, r := range results {
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		line.Correct = line.Correct && r.correct()
		for _, d := range defs {
			name := d.Name
			if len(results) > 1 {
				name = r.Workload + "/" + name
			}
			line.Metrics[name] = value{pick(r)[d.Name], d.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(w, string(data))
	return line.Correct, nil
}

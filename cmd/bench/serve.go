package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"schemaevo/internal/telemetry"
	"schemaevo/schemaevoclient"
)

// restarts is how many daemon starts over the preloaded store set-up
// time is the median of.
const restarts = 5

// daemon is one running schemaevod process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	drain  chan struct{} // closed when its stdout reaches EOF
}

// startDaemon execs schemaevod over dir and returns once /readyz answers
// 200, with the time that took.
func startDaemon(bin, dir string, args []string) (*daemon, time.Duration, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-store-dir", dir}, args...)...)
	d := &daemon{cmd: cmd, drain: make(chan struct{})}
	cmd.Stderr = &d.stderr
	bindLifetime(cmd)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	first := make(chan string, 1)
	go func() {
		defer close(d.drain)
		rd := bufio.NewReader(stdout)
		line, _ := rd.ReadString('\n')
		first <- line
		io.Copy(io.Discard, rd)
	}()
	var line string
	select {
	case line = <-first:
	case <-time.After(60 * time.Second):
	}
	_, rest, ok := strings.Cut(line, "serving on ")
	if !ok {
		d.stop()
		return nil, 0, fmt.Errorf("schemaevod did not start: %q\n%s", line, d.stderr.String())
	}
	d.base = strings.Fields(rest)[0]
	probe := &http.Client{Timeout: 5 * time.Second}
	defer probe.CloseIdleConnections()
	for deadline := start.Add(60 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err := probe.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, fmt.Errorf("schemaevod never became ready: %v", err)
		}
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop drains the daemon with SIGTERM (SIGKILL after a grace period) and
// waits for it to exit. schemaevod answers /readyz a moment before it
// handles SIGTERM, so a daemon stopped right after start may die of the
// signal itself; that is a stop all the same.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drain:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.drain
	}
	err := d.cmd.Wait()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
	}
	return err
}

// fetchReport reads the daemon's /metrics report.
func fetchReport(cl *schemaevoclient.Client) (*telemetry.Report, error) {
	raw, err := cl.Metrics(context.Background())
	if err != nil {
		return nil, err
	}
	var rep telemetry.Report
	return &rep, json.Unmarshal(raw, &rep)
}

func stageJobs(r *telemetry.Report, name string) int64 {
	for _, s := range r.Stages {
		if s.Name == name {
			return s.Jobs
		}
	}
	return 0
}

// serveDetail is the per-workload detail in the JSON report.
type serveDetail struct {
	Stored        int                `json:"stored"`
	Filesystem    string             `json:"filesystem"`
	SetupSamplesS []float64          `json:"setup_samples_s"`
	Mix           map[string]int     `json:"mix_sent"`
	Steps         []stepStats        `json:"steps"`
	Counters      map[string]float64 `json:"counters"`
}

func runServe(cfg *config, name, bin string, logf func(string, ...any)) (*result, error) {
	spec := specFor(name, cfg.smoke)
	tm := serveTiming(cfg)
	t0 := time.Now()
	sch, err := buildSchedule(spec, cfg.seed, opsNeeded(spec, tm))
	if err != nil {
		return nil, err
	}
	_, noiseInput, err := paperCorpus(cfg)
	if err != nil {
		return nil, err
	}
	noise := &noiseFloor{input: noiseInput}
	logf("%s: %d ops generated in %v", name, len(sch.ops), time.Since(t0).Round(time.Millisecond))

	r := &result{Workload: name}
	dir := filepath.Join(cfg.state, name)
	storeDir := filepath.Join(dir, "store")

	// Preload: one NDJSON batch into a fresh daemon, then restarts over
	// the populated store.
	d, _, err := startDaemon(bin, storeDir, daemonArgs)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	batch, err := schemaevoclient.New(schemaevoclient.Config{BaseURL: d.base, MaxAttempts: 1}).
		BatchIngest(context.Background(), sch.preload)
	d.stop()
	if err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	r.check("preload", batch.OK == spec.preload, "%d of %d preloaded histories stored", batch.OK, spec.preload)
	// The stored bodies are not sent again. Kept, they made the
	// generator's heap, and so its collections competing with the daemon
	// for the two cores, several times larger.
	sch.preload = nil
	current := map[int]string{}
	for i, l := range batch.Lines {
		current[i] = l.ID
	}
	logf("%s: preloaded %d histories in %v", name, batch.OK, time.Since(t0).Round(time.Millisecond))

	var tr *serveTraceInput
	if cfg.trace {
		if tr, err = snapshotStore(storeDir, dir, current); err != nil {
			return nil, err
		}
	}

	var setups []float64
	for i := 0; i < restarts; i++ {
		if i > 0 {
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("schemaevod exit: %w\n%s", err, d.stderr.String())
			}
		}
		var took time.Duration
		if d, took, err = startDaemon(bin, storeDir, daemonArgs); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()

	g := newGen(d.base, sch.ops, current)
	defer g.close()
	before, err := fetchReport(g.cl)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		if tr.transportMs, err = measureTransport(g); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	noise.sample()
	step := func(name string, rate float64, dur time.Duration) (stepStats, error) {
		cpu0, err := procCPU(d.pid())
		if err != nil {
			return stepStats{}, err
		}
		gen0 := selfCPU()
		st := g.runStep(name, rate, dur, spec.primary)
		st.GenCPUMs = ms(selfCPU() - gen0)
		cpu1, err := procCPU(d.pid())
		if err != nil {
			return stepStats{}, err
		}
		st.DaemonCPUMs = ms(cpu1 - cpu0)
		for i := 0; i < 3; i++ {
			noise.sample()
		}
		return st, nil
	}

	// The warm-up, the nominal step, then the saturation step.
	warmup, err := step("warmup", spec.rate, tm.warm)
	if err != nil {
		return nil, err
	}
	nominal, err := step("nominal", spec.rate, tm.nominal)
	if err != nil {
		return nil, err
	}
	// The daemon's memory at its nominal load. The saturation step would
	// add whether a store compaction (a threshold event) fell inside the
	// run, which moved this by half from run to run.
	peak, err := peakRSSMiB(fmt.Sprint(d.pid()))
	if err != nil {
		return nil, err
	}
	sat, err := step("saturation", 0, tm.saturate)
	if err != nil {
		return nil, err
	}
	steps := []stepStats{warmup, nominal, sat}

	after, err := fetchReport(g.cl)
	if err != nil {
		return nil, err
	}
	stopped = true
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("schemaevod exit: %w\n%s", err, d.stderr.String())
	}

	// Totals and output checks.
	sent := map[opKind]int{}
	ingested := 0
	for i, o := range g.out {
		if !o.sent {
			continue
		}
		sent[g.ops[i].kind]++
		if g.ops[i].kind.write() {
			ingested += len(g.ops[i].body())
		}
	}
	exhausted := false
	for _, st := range steps {
		r.Attempted += st.Sent
		r.Failed += st.Failed
		exhausted = exhausted || st.Exhausted
	}
	r.check("schedule", !exhausted, "a step ran out of generated ops")
	r.check("responses", r.Failed == 0, "%v", g.errorSummary())
	bad304 := int(g.bad.Load())
	r.check("not-modified bodies", bad304 == 0, "%d 304 answers carried a body", bad304)
	r.Failed += bad304
	exec := int(stageJobs(after, "analyze.exec") - stageJobs(before, "analyze.exec"))
	incr := int(stageJobs(after, "analyze.incr") - stageJobs(before, "analyze.incr"))
	r.check("analyze.exec", exec == sent[opNew], "%d full analyses for %d new histories", exec, sent[opNew])
	r.check("analyze.incr", incr == sent[opExtend], "%d incremental analyses for %d extends", incr, sent[opExtend])
	r.Failed += abs(exec-sent[opNew]) + abs(incr-sent[opExtend])
	notModified := after.Render.NotModified - before.Render.NotModified
	conds := 0
	for _, o := range g.out {
		if o.ok && o.kind == opCond {
			conds++
		}
	}
	r.check("render.not_modified", int(notModified) == conds, "%d 304s counted by the daemon for %d conditional GETs", notModified, conds)

	r.Noise = noise.report()
	r.Metrics = map[string]float64{
		"setup_s":        median(setups),
		"ops_per_s":      sat.AnsweredPerS,
		"latency_p50_ms": nominal.P50Ms,
		"cpu_ms_per_op":  nominal.DaemonCPUMs / float64(nominal.Sent),
		"peak_rss_mb":    peak,
	}
	r.Tail = nominal.Tail

	counters := map[string]float64{
		"analyze.exec":        float64(exec),
		"analyze.incr":        float64(incr),
		"store.hot_hit_rate":  ratio(after.Store.HotHits-before.Store.HotHits, after.Store.HotMisses-before.Store.HotMisses),
		"store.disk_hits":     float64(after.Store.DiskHits - before.Store.DiskHits),
		"store.write_amp":     float64(after.Store.BytesWritten-before.Store.BytesWritten) / math.Max(1, float64(ingested)),
		"store.compactions":   float64(after.Store.Compactions - before.Store.Compactions),
		"store.scrub_passes":  float64(after.Store.ScrubPasses - before.Store.ScrubPasses),
		"render.hit_rate":     ratio(after.Render.Hits-before.Render.Hits, after.Render.Misses-before.Render.Misses),
		"render.evictions":    float64(after.Render.Evictions - before.Render.Evictions),
		"render.not_modified": float64(notModified),
		"gen.lateness_p99_ms": 0,
		"gen.queue_max":       0,
	}
	for _, st := range steps {
		counters["gen.lateness_p99_ms"] = math.Max(counters["gen.lateness_p99_ms"], st.LatenessP99Ms)
		counters["gen.queue_max"] = math.Max(counters["gen.queue_max"], float64(st.QueueMax))
	}
	mix := map[string]int{}
	for k, n := range sent {
		mix[k.String()] = n
	}
	r.Detail = serveDetail{
		Stored: spec.preload, Filesystem: fsTypeName(storeDir), SetupSamplesS: setups, Mix: mix,
		Steps: steps, Counters: counters,
	}
	logf("%s: nominal %.0f req/s, p50 %.3f ms, p99 %.3f ms; saturation %.0f req/s", name, spec.rate, nominal.P50Ms, nominal.P99Ms, sat.AnsweredPerS)
	for _, st := range steps {
		if !st.Valid {
			logf("%s: %s step invalid: dispatcher lateness p99 %.2f ms exceeds %v", name, st.Name, st.LatenessP99Ms, lateValid)
		}
	}

	if tr != nil {
		if r.Layers, r.Table, err = traceServe(cfg, name, sch.ops[:nominal.From+nominal.Sent], tr, &nominal); err != nil {
			return nil, err
		}
		for k, v := range counters {
			r.Layers[k] = v
		}
		setNoise(r.Layers, r.Noise)
	}
	return r, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// copyDir copies a flat directory of regular files.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"schemaevo/internal/corpus"
	"schemaevo/internal/history"
	"schemaevo/internal/metrics"
	"schemaevo/internal/pipeline"
	"schemaevo/internal/quantize"
	"schemaevo/internal/schema"
	"schemaevo/internal/sqlddl/dialect"
)

// The traced run (-trace 1) replays a workload's seeded inputs
// single-threaded through each layer's public functions, timing every
// call as a span recorded from these files around the call; nothing
// inside the program is instrumented. Spans stay in memory and are
// written as JSONL when the replay ends.

// span is one timed call. Parent indexes the enclosing span (-1 for a
// root); ID names the project or op the call served.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	ID      string `json:"id"`
}

// tracer records spans and accumulates per-layer self time.
type tracer struct {
	epoch time.Time
	spans []span
	self  map[string]time.Duration
	calls map[string]int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), self: map[string]time.Duration{}, calls: map[string]int{}}
}

// open starts a span and returns its index.
func (t *tracer) open(name, id string, parent int) int {
	t.spans = append(t.spans, span{Name: name, StartNs: time.Since(t.epoch).Nanoseconds(), Parent: parent, ID: id})
	return len(t.spans) - 1
}

// close ends a span; a layer's self time is its duration minus the part
// its child spans cover.
func (t *tracer) close(i int) time.Duration {
	s := &t.spans[i]
	s.EndNs = time.Since(t.epoch).Nanoseconds()
	d := time.Duration(s.EndNs - s.StartNs)
	var children time.Duration
	for j := i + 1; j < len(t.spans); j++ {
		if t.spans[j].Parent == i {
			children += time.Duration(t.spans[j].EndNs - t.spans[j].StartNs)
		}
	}
	t.self[s.Name] += d - children
	t.calls[s.Name]++
	return d
}

// time runs fn as one span.
func (t *tracer) time(name, id string, parent int, fn func()) time.Duration {
	i := t.open(name, id, parent)
	fn()
	return t.close(i)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanPath is where a workload's spans are written.
func spanPath(cfg *config, workload string) string {
	return filepath.Join(mkdirAll(filepath.Join(cfg.build, "spans")), fmt.Sprintf("%s-seed%d.jsonl", workload, cfg.seed))
}

// layerRow is one row of a layer table: mean self ms per op over the
// workload's ops, and its share of the untraced per-op figure.
type layerRow struct {
	Layer   string  `json:"layer"`
	Calls   int     `json:"calls"`
	MsPerOp float64 `json:"ms_per_op"`
	Share   float64 `json:"share"`
	Derived bool    `json:"derived,omitempty"`
}

// layerTable attributes a workload's untraced per-op figure to layers;
// the unattributed row is what the rows leave over, flagged above 10%.
type layerTable struct {
	Op              string     `json:"op"`
	Figure          string     `json:"figure"`
	UntracedMsPerOp float64    `json:"untraced_ms_per_op"`
	Rows            []layerRow `json:"rows"`
	Unattributed    layerRow   `json:"unattributed"`
	Flagged         bool       `json:"flagged"`
}

const unattributedFlag = 0.10

func newTable(op, figure string, untraced float64, rows []layerRow) *layerTable {
	t := &layerTable{Op: op, Figure: figure, UntracedMsPerOp: untraced, Rows: rows}
	rest := untraced
	for i := range t.Rows {
		t.Rows[i].Share = t.Rows[i].MsPerOp / untraced
		rest -= t.Rows[i].MsPerOp
	}
	t.Unattributed = layerRow{Layer: "unattributed", MsPerOp: rest, Share: rest / untraced}
	t.Flagged = math.Abs(t.Unattributed.Share) > unattributedFlag
	return t
}

func (t *layerTable) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "\nlayer table %s (per %s; untraced %s %.4f ms/%s)\n", workload, t.Op, t.Figure, t.UntracedMsPerOp, t.Op)
	fmt.Fprintf(w, "%-28s %8s %10s %8s\n", "layer", "calls", "ms/"+t.Op, "share")
	for _, r := range t.Rows {
		name, calls := r.Layer, fmt.Sprint(r.Calls)
		if r.Derived {
			name, calls = name+" (derived)", "-"
		}
		fmt.Fprintf(w, "%-28s %8s %10.4f %7.1f%%\n", name, calls, r.MsPerOp, 100*r.Share)
	}
	flag := ""
	if t.Flagged {
		flag = "  [flagged: over 10%]"
	}
	fmt.Fprintf(w, "%-28s %8s %10.4f %7.1f%%%s\n", "unattributed", "-", t.Unattributed.MsPerOp, 100*t.Unattributed.Share, flag)
}

// corpusTrace holds the corpus replay's per-project layer costs.
type corpusTrace struct {
	perProject map[string]float64 // ms per project: spans' median over replays, whole passes' mean
	calls      map[string]int
	allocs     map[string]float64 // per project
	maps       float64            // median growth of a worker's mappings per warm pass
}

// traceReplays is how many times the corpus replay runs; each layer
// reports its median.
func traceReplays(cfg *config) int {
	if cfg.smoke {
		return 1
	}
	return 5
}

// traceCorpus replays the corpus in pipeline order — fingerprint, parse
// on one pooled reconstructor, assemble, measures, labels, result encode
// and decode — then has a fresh worker per replay time whole pipeline.Run
// passes on one shard with a fresh cache directory, a warm one and none,
// from which the cache write and load rows are derived. A one-shard
// pass's CPU time beyond its wall time is the runtime's background work
// (GC marking, scavenging) on other threads, the runtime.bg row; what a
// pass on the default shards spends beyond that is the pipeline.shards
// row. What the untraced workers spent beyond those passes is left
// unattributed: it is mostly the machine's drift between the two runs.
func traceCorpus(cfg *config, base *corpus.Corpus, corpusPath string) (*corpusTrace, error) {
	n := float64(base.Len())
	generic, _ := dialect.ByName("")
	scheme := quantize.DefaultScheme()
	ct := &corpusTrace{perProject: map[string]float64{}, calls: map[string]int{}, allocs: map[string]float64{}}

	// Allocation counts come from a separate untimed replay, so reading
	// the memory statistics never lands inside a timed span.
	var m0, m1 runtime.MemStats
	rc := schema.AcquireReconstructor()
	for _, p := range base.Projects {
		path := p.Repo.MainDDLPath()
		runtime.ReadMemStats(&m0)
		parsed, err := history.ParseVersionsIn(rc, p.Repo, path, generic)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, err
		}
		ct.allocs["parse"] += float64(m1.Mallocs-m0.Mallocs) / n
		runtime.ReadMemStats(&m0)
		history.Assemble(p.Repo, path, parsed)
		runtime.ReadMemStats(&m1)
		ct.allocs["assemble"] += float64(m1.Mallocs-m0.Mallocs) / n
	}
	schema.ReleaseReconstructor(rc)

	samples := map[string][]float64{}
	tr := newTracer()
	for rep := 0; rep < traceReplays(cfg); rep++ {
		before := maps.Clone(tr.self)
		rc := schema.AcquireReconstructor()
		for _, p := range base.Projects {
			root := tr.open("project", p.Name, -1)
			var fp, path string
			var parsed []history.ParsedVersion
			var h *history.History
			var m metrics.Measures
			var data []byte
			var err error
			tr.time("fingerprint", p.Name, root, func() { fp = pipeline.FingerprintDialect(p.Repo, "") })
			tr.time("parse", p.Name, root, func() {
				path = p.Repo.MainDDLPath()
				parsed, err = history.ParseVersionsIn(rc, p.Repo, path, generic)
			})
			if err != nil {
				return nil, err
			}
			tr.time("assemble", p.Name, root, func() { h = history.Assemble(p.Repo, path, parsed); h.Dialect = rc.DialectID() })
			tr.time("measures", p.Name, root, func() { m = metrics.Compute(h); err = m.Validate() })
			if err != nil {
				return nil, err
			}
			tr.time("labels", p.Name, root, func() {
				if m.HasSchema {
					quantize.Compute(m, scheme)
				}
			})
			tr.time("cache.encode", p.Name, root, func() {
				data = pipeline.EncodeResult(&pipeline.CachedResult{Fingerprint: fp, Project: p.Name, History: h, Measures: m})
			})
			tr.time("cache.decode", p.Name, root, func() { _, err = pipeline.DecodeResult(data) })
			if err != nil {
				return nil, err
			}
			tr.close(root)
		}
		schema.ReleaseReconstructor(rc)
		for name, d := range tr.self {
			samples[name] = append(samples[name], ms(d-before[name])/n)
		}
	}
	for name, xs := range samples {
		ct.perProject[name] = median(xs)
	}
	for name, c := range tr.calls {
		ct.calls[name] = c
	}
	if err := ct.timePasses(cfg, tr, corpusPath, base.Len()); err != nil {
		return nil, err
	}
	return ct, tr.write(spanPath(cfg, "corpus"))
}

// passTime is how long each kind of whole pass runs per replay, in
// passes of at least one: long enough that the collections the passes'
// garbage causes are counted in proportion. At smoke scale each runs once.
func passTime(cfg *config) time.Duration {
	if cfg.smoke {
		return 0
	}
	return 300 * time.Millisecond
}

// timePasses has a fresh worker per replay run each kind of whole pass
// for passTime and records the mean wall and CPU time per project
// ("run.KIND", "run.KIND.cpu"), and the growth of the worker's mappings
// per warm pass.
func (ct *corpusTrace) timePasses(cfg *config, tr *tracer, corpusPath string, n int) error {
	warm := cfg.cache.next("trace-warm")
	defer release(warm)
	var mapGrowth []float64
	wall, cpu, passes := map[string]int64{}, map[string]int64{}, map[string]int{}
	for rep := 0; rep < traceReplays(cfg); rep++ {
		w, err := startWorker(corpusPath)
		if err != nil {
			return err
		}
		if rep == 0 {
			if _, err := w.pass(passCmd{Dir: warm}); err != nil {
				w.stop()
				return err
			}
		}
		lastMaps := 0 // the worker's mappings after its previous pass
		for _, v := range []struct {
			name   string
			shards int
			dir    string // the cache directory, unless fresh
			fresh  bool   // a new cache directory per pass
		}{
			{"run.fresh", 1, "", true}, {"run.warm", 1, warm, false}, {"run.none", 1, "", false},
			{"run.fresh.shards", 0, "", true}, {"run.warm.shards", 0, warm, false},
		} {
			for start, first := time.Now(), true; first || time.Since(start) < passTime(cfg); first = false {
				cmd := passCmd{Dir: v.dir, Shards: v.shards, Maps: true}
				if v.fresh {
					cmd.Dir = cfg.cache.next("trace-fresh")
				}
				var p passReport
				tr.time(v.name, "corpus", -1, func() { p, err = w.pass(cmd) })
				if err == nil && v.fresh {
					err = release(cmd.Dir)
				}
				if err == nil && (p.Err != "" || p.Analyzed != n || (v.dir == warm && p.Hits != n)) {
					err = fmt.Errorf("traced %s pass: %d of %d analyzed, %d hits, err %q", v.name, p.Analyzed, n, p.Hits, p.Err)
				}
				if err != nil {
					w.stop()
					return err
				}
				if v.dir == warm && lastMaps > 0 {
					mapGrowth = append(mapGrowth, float64(p.Maps-lastMaps))
				}
				lastMaps = p.Maps
				wall[v.name] += p.WallNs
				cpu[v.name] += p.CPUNs
				passes[v.name]++
			}
		}
		if err := w.stop(); err != nil {
			return fmt.Errorf("corpus worker: %w", err)
		}
	}
	for name, k := range passes {
		ct.perProject[name] = ms(time.Duration(wall[name])) / float64(k*n)
		ct.perProject[name+".cpu"] = ms(time.Duration(cpu[name])) / float64(k*n)
	}
	ct.maps = median(mapGrowth)
	return nil
}

// layers builds one corpus workload's per-layer metrics and table. Both
// corpus workloads replay the same corpus, so every corpus layer metric
// is measured on both; the table attributes the untraced figure, the
// workers' CPU time per project, to the layers the workload's passes
// run. The serve layers report 0.
func (ct *corpusTrace) layers(warm bool, d corpusDetail, noise noiseReport) (map[string]float64, *layerTable) {
	p := ct.perProject
	row := func(name string) layerRow { return layerRow{Layer: name, Calls: ct.calls[name], MsPerOp: p[name]} }
	derived := func(name string, v float64) layerRow { return layerRow{Layer: name, MsPerOp: v, Derived: true} }
	write := derived("cache.write", p["run.fresh"]-p["run.none"]-p["fingerprint"]-p["cache.encode"])
	load := derived("cache.load", p["run.warm"]-p["fingerprint"]-p["cache.decode"]-p["labels"])
	run := "run.fresh"
	var rows []layerRow
	if warm {
		run = "run.warm"
		rows = []layerRow{row("fingerprint"), load, row("cache.decode"), row("labels")}
	} else {
		rows = []layerRow{row("fingerprint"), row("parse"), row("assemble"), row("measures"), row("labels"), row("cache.encode"), write}
	}
	rows = append(rows, derived("runtime.bg", p[run+".cpu"]-p[run]), derived("pipeline.shards", p[run+".shards.cpu"]-p[run+".cpu"]))
	t := newTable("project", "worker CPU", d.CPUMsPerProject.Median, rows)
	m := zeroLayers()
	for _, r := range append(rows, row("fingerprint"), row("parse"), row("assemble"), row("measures"), row("labels"),
		row("cache.encode"), row("cache.decode"), write, load) {
		m[r.Layer+".ms_per_project"] = r.MsPerOp
	}
	m["parse.allocs_per_project"] = ct.allocs["parse"]
	m["assemble.allocs_per_project"] = ct.allocs["assemble"]
	m["cache.maps_per_pass"] = ct.maps
	m["pipeline.parallel_efficiency"] = d.ParallelEfficiency
	m["pipeline.unattributed_ms_per_project"] = t.Unattributed.MsPerOp
	setNoise(m, noise)
	return m, t
}

// zeroLayers returns every per-layer metric at 0, the value of a layer
// the workload does not exercise.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}

func setNoise(m map[string]float64, n noiseReport) {
	m["noise.ref_ms"] = n.RefMs
	m["noise.ref_iqr_ms"] = n.RefIQRMs
	m["noise.ref_drift"] = math.Abs(n.Drift)
	m["noise.steal_share"] = n.StealShare
}

package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"time"

	"schemaevo/internal/corpus"
	"schemaevo/internal/quantize"
	"schemaevo/internal/synth"
)

// Corpus workloads: pipeline.Run with default Options over the calibrated
// 151-project paper corpus, in worker processes. corpus-cold gives every
// pass a fresh empty cache directory (a first `reproduce` run);
// corpus-warm runs against a cache filled at setup (a re-run). When both
// are selected they run interleaved in rounds of one cold and two warm
// passes, so machine drift hits both alike, but each workload's passes run
// in workers of its own: a warm hit pins its cache file's mapping for the
// life of the process, and in a shared worker corpus-cold's peak RSS
// would carry corpus-warm's mappings.

const (
	roundsPerWorker = 100                    // rounds before a worker is replaced
	noiseEvery      = 500 * time.Millisecond // minimum gap between noise samples
	setupEvery      = 2 * time.Second        // minimum gap between set-up probes
	smokeProjects   = 24                     // the corpus at smoke scale
)

// corpusDetail is the per-workload detail in the JSON report.
type corpusDetail struct {
	Projects           int       `json:"projects"`
	Passes             int       `json:"passes"`
	WorkerPIDs         []int     `json:"worker_pids"` // the workers that ran this workload's passes
	Filesystem         string    `json:"filesystem"`
	PassMs             spread    `json:"pass_ms"`
	CPUMsPerProject    spread    `json:"cpu_ms_per_project"`
	SysMsPerProject    spread    `json:"sys_ms_per_project"`
	ParallelEfficiency float64   `json:"parallel_efficiency"`
	SetupSamplesS      []float64 `json:"setup_samples_s"`
}

// corpusSide is one corpus workload's worker and its passes.
type corpusSide struct {
	res    *result
	ref    string
	w      *worker   // runs this workload's passes only
	pids   []int     // of every worker it has had
	wall   []float64 // ms per pass
	cpu    []float64 // ms per project
	sys    []float64 // ms per project, in the kernel
	eff    []float64
	peak   float64
	setups []float64 // s
	bad    int       // passes that failed an output check
	first  string    // the first such failure
}

func (s *corpusSide) add(kind string, p passReport, procs, n int) {
	r := s.res
	r.Attempted += n
	failed := p.Failed
	ok := p.Err == "" && p.Projects == n && p.Analyzed == n && p.Failed == 0 && p.Digest == s.ref
	switch kind {
	case "cold":
		ok = ok && p.Hits == 0 && p.Writes == n
	case "warm":
		ok = ok && p.Hits == n
	}
	if !ok {
		// A pass that fails an output check fails as a whole.
		failed = n
		if s.bad++; s.bad == 1 {
			s.first = fmt.Sprintf("%s pass: %d/%d analyzed, %d failed, %d hits, %d writes, digest match %t, err %q",
				kind, p.Analyzed, n, p.Failed, p.Hits, p.Writes, p.Digest == s.ref, p.Err)
		}
	}
	r.Failed += failed
	wall := time.Duration(p.WallNs)
	s.wall = append(s.wall, ms(wall))
	s.cpu = append(s.cpu, ms(time.Duration(p.CPUNs))/float64(n))
	s.sys = append(s.sys, ms(time.Duration(p.SysNs))/float64(n))
	s.eff = append(s.eff, float64(p.CPUNs)/(float64(p.WallNs)*float64(procs)))
	s.peak = math.Max(s.peak, p.PeakRSSMiB)
}

// restart replaces the side's worker with a fresh one.
func (s *corpusSide) restart(corpusPath string) error {
	if s.w != nil {
		if err := s.w.stop(); err != nil {
			return fmt.Errorf("corpus worker: %w", err)
		}
	}
	w, err := startWorker(corpusPath)
	if err != nil {
		return err
	}
	s.w = w
	s.pids = append(s.pids, w.cmd.Process.Pid)
	return nil
}

func runCorpus(cfg *config, names []string, logf func(string, ...any)) ([]*result, error) {
	t0 := time.Now()
	base, file, err := paperCorpus(cfg)
	if err != nil {
		return nil, err
	}
	n := base.Len()
	dir := mkdirAll(filepath.Join(cfg.state, "corpus"))
	corpusPath := filepath.Join(dir, "corpus.json")
	if err := os.WriteFile(corpusPath, file, 0o644); err != nil {
		return nil, err
	}
	// The reference: the sequential corpus.Corpus.Analyze.
	refCorpus := freshCorpus(base)
	if err := refCorpus.Analyze(quantize.DefaultScheme()); err != nil {
		return nil, fmt.Errorf("reference analysis: %w", err)
	}
	ref := corpusDigest(refCorpus)

	sides := map[string]*corpusSide{}
	for _, name := range names {
		sides[name] = &corpusSide{res: &result{Workload: name}, ref: ref}
	}
	cold, warm := sides["corpus-cold"], sides["corpus-warm"]
	noise := &noiseFloor{input: file}

	// Set-up is probed before the passes and then every setupEvery among
	// them, so its median spans the run as the other metrics do.
	// corpus-cold's set-up is a worker start (exec, corpus load, ready);
	// corpus-warm's is a cache-fill pass, run by its own worker, and the
	// first fill is its cache.
	defer func() {
		for _, s := range sides {
			if s.w != nil {
				s.w.stop()
			}
		}
	}()
	for _, name := range names {
		if err := sides[name].restart(corpusPath); err != nil {
			return nil, err
		}
	}
	if cold != nil {
		cold.setups = append(cold.setups, cold.w.setup.Seconds())
	}
	var warmDir string
	badFills := 0
	probeSetup := func() error {
		if cold != nil {
			pw, err := startWorker(corpusPath)
			if err != nil {
				return err
			}
			cold.setups = append(cold.setups, pw.setup.Seconds())
			if err := pw.stop(); err != nil {
				return fmt.Errorf("corpus worker: %w", err)
			}
		}
		if warm != nil {
			d := cfg.cache.next("fill")
			p, err := warm.w.pass(passCmd{Dir: d})
			if err != nil {
				return err
			}
			if warmDir == "" {
				warmDir = d
			} else if err := release(d); err != nil {
				return err
			}
			warm.setups = append(warm.setups, time.Duration(p.WallNs).Seconds())
			if p.Err != "" || p.Analyzed != n || p.Hits != 0 || p.Writes != n || p.Digest != ref {
				badFills++
			}
		}
		return nil
	}
	if warm != nil {
		if err := probeSetup(); err != nil {
			return nil, err
		}
		defer release(warmDir)
	}

	logf("corpus: %d projects, reference and set-up done in %v", n, time.Since(t0).Round(time.Millisecond))
	budget := time.Duration(cfg.seconds * float64(len(names)) * float64(time.Second))
	start := time.Now()
	var lastNoise time.Time
	lastSetup := start
	passes := 0
	for round := 0; time.Since(start) < budget || round == 0; round++ {
		if round > 0 && round%roundsPerWorker == 0 {
			for _, name := range names {
				if err := sides[name].restart(corpusPath); err != nil {
					return nil, err
				}
			}
		}
		if time.Since(lastNoise) >= noiseEvery {
			noise.sample()
			lastNoise = time.Now()
		}
		if time.Since(lastSetup) >= setupEvery {
			if err := probeSetup(); err != nil {
				return nil, err
			}
			lastSetup = time.Now()
		}
		if cold != nil {
			d := cfg.cache.next("cold")
			p, err := cold.w.pass(passCmd{Dir: d})
			if err != nil {
				return nil, err
			}
			if err := release(d); err != nil {
				return nil, err
			}
			cold.add("cold", p, cold.w.procs, n)
			passes++
		}
		if warm != nil {
			for i := 0; i < 2; i++ {
				p, err := warm.w.pass(passCmd{Dir: warmDir})
				if err != nil {
					return nil, err
				}
				warm.add("warm", p, warm.w.procs, n)
				passes++
			}
		}
	}
	noise.sample()
	workers := 0
	for _, name := range names {
		s := sides[name]
		if err := s.w.stop(); err != nil {
			return nil, fmt.Errorf("corpus worker: %w", err)
		}
		workers += len(s.pids)
	}
	logf("corpus: %d passes in %v over %d workers", passes, time.Since(start).Round(time.Millisecond), workers)
	if warm != nil {
		warm.res.check("fills", badFills == 0, "%d of %d cache fills did not write the whole corpus", badFills, len(warm.setups))
	}

	var trace *corpusTrace
	if cfg.trace {
		t0 = time.Now()
		if trace, err = traceCorpus(cfg, base, corpusPath); err != nil {
			return nil, err
		}
		logf("corpus: traced replay in %v", time.Since(t0).Round(time.Millisecond))
	}

	var out []*result
	for _, name := range names {
		s := sides[name]
		r := s.res
		r.check("passes", s.bad == 0, "%d of %d passes failed a check; first: %s", s.bad, len(s.wall), s.first)
		r.Noise = noise.report()
		r.Metrics = map[string]float64{
			"setup_s":        median(s.setups),
			"ops_per_s":      float64(n) / (median(s.wall) / 1000),
			"latency_p50_ms": median(s.wall),
			"cpu_ms_per_op":  median(s.cpu),
			"peak_rss_mb":    s.peak,
		}
		r.Tail = tailOf(s.wall)
		d := corpusDetail{
			Projects: n, Passes: len(s.wall), WorkerPIDs: s.pids, Filesystem: fsTypeName(dir),
			PassMs: spreadOf(s.wall), CPUMsPerProject: spreadOf(s.cpu), SysMsPerProject: spreadOf(s.sys),
			ParallelEfficiency: median(s.eff), SetupSamplesS: s.setups,
		}
		r.Detail = d
		if trace != nil {
			r.Layers, r.Table = trace.layers(name == "corpus-warm", d, r.Noise)
		}
		out = append(out, r)
	}
	return out, nil
}

// cacheArea hands out the pipeline cache directories of one run, under
// .bench_build/cache/. When the run is done with a directory its files
// are truncated, not deleted, and the empty files stay: on ext4, freeing
// tens of thousands of inodes made creating files 10 to 40 times slower
// for minutes afterwards, in every process (README.md).
type cacheArea struct {
	dir string
	n   int
}

func (a *cacheArea) next(kind string) string {
	a.n++
	return filepath.Join(a.dir, fmt.Sprintf("%s-%d", kind, a.n))
}

// release truncates every file under dir.
func release(dir string) error {
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		return os.Truncate(path, 0)
	})
}

// paperCorpus is the seed's calibrated paper corpus, cut to its first
// smokeProjects at smoke scale, and its JSON file: the corpus workloads'
// input and every workload's noise-kernel input.
func paperCorpus(cfg *config) (*corpus.Corpus, []byte, error) {
	c, err := synth.PaperCorpus(cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	if cfg.smoke {
		c.Projects = c.Projects[:smokeProjects]
	}
	var b bytes.Buffer
	if err := c.WriteJSON(&b); err != nil {
		return nil, nil, err
	}
	return c, b.Bytes(), nil
}

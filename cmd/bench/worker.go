package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"time"

	"schemaevo/internal/corpus"
	"schemaevo/internal/pipeline"
)

// A corpus worker is this binary re-executed with workerEnv naming the
// corpus file. It loads the corpus once, announces itself with a
// workerReady line, then runs one pipeline.Run pass per passCmd read from
// stdin and answers each with a passReport line. The parent replaces
// workers periodically: every warm hit pins its cache file's mapping for
// the life of the process (see README.md).

type workerReady struct {
	Ready      bool  `json:"ready"`
	LoadNs     int64 `json:"load_ns"`
	GOMAXPROCS int   `json:"gomaxprocs"`
}

// passCmd is one pass for a worker to run. The workloads' passes use the
// default Options with a cache directory: a fresh one for a cold pass or
// a cache fill, a filled one for a warm pass. The traced replay also runs
// passes on one shard and without a cache.
type passCmd struct {
	Dir    string `json:"dir"`            // empty runs without a cache
	Shards int    `json:"shards"`         // 0 is the pipeline's default
	Maps   bool   `json:"maps,omitempty"` // report the mapping count after the pass
}

// passReport is one pass as the worker measured it.
type passReport struct {
	WallNs     int64   `json:"wall_ns"`
	CPUNs      int64   `json:"cpu_ns"`
	SysNs      int64   `json:"sys_ns"` // of CPUNs, in the kernel
	Projects   int     `json:"projects"`
	Analyzed   int     `json:"analyzed"`
	Failed     int     `json:"failed"`
	Hits       int     `json:"hits"`
	Writes     int     `json:"writes"`
	Digest     string  `json:"digest"`
	PeakRSSMiB float64 `json:"peak_rss_mib"`
	Maps       int     `json:"maps,omitempty"`
	Err        string  `json:"err,omitempty"`
}

func runWorker(path string, in io.Reader, out io.Writer) error {
	start := time.Now()
	base, err := corpus.LoadFile(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(workerReady{true, time.Since(start).Nanoseconds(), runtime.GOMAXPROCS(0)}); err != nil {
		return err
	}
	dec := json.NewDecoder(in)
	for {
		var cmd passCmd
		if err := dec.Decode(&cmd); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("reading a command: %w", err)
		}
		if err := enc.Encode(runPass(base, cmd)); err != nil {
			return err
		}
	}
}

// runPass analyzes fresh project wrappers around the loaded repositories.
func runPass(base *corpus.Corpus, cmd passCmd) passReport {
	c := freshCorpus(base)
	user0, sys0 := selfCPUSplit()
	start := time.Now()
	st, err := pipeline.Run(context.Background(), c, pipeline.Options{CacheDir: cmd.Dir, Shards: cmd.Shards})
	wall := time.Since(start)
	user1, sys1 := selfCPUSplit()
	r := passReport{
		WallNs: wall.Nanoseconds(), CPUNs: (user1 - user0 + sys1 - sys0).Nanoseconds(), SysNs: (sys1 - sys0).Nanoseconds(),
		Projects: st.Projects, Analyzed: st.Analyzed, Failed: st.Failed,
		Hits: st.CacheHits, Writes: st.CacheWrites,
		Digest: corpusDigest(c),
	}
	r.PeakRSSMiB, _ = peakRSSMiB("self")
	if cmd.Maps {
		r.Maps = mapCount()
	}
	if err != nil {
		r.Err = err.Error()
	}
	return r
}

// freshCorpus wraps the same read-only repositories in new, unanalyzed
// projects, so every pass does the whole analysis.
func freshCorpus(base *corpus.Corpus) *corpus.Corpus {
	c := &corpus.Corpus{Projects: make([]*corpus.Project, len(base.Projects))}
	for i, p := range base.Projects {
		c.Projects[i] = &corpus.Project{Name: p.Name, Repo: p.Repo, GroundTruth: p.GroundTruth, Dialect: p.Dialect}
	}
	return c
}

// corpusDigest hashes what a corpus analysis decides per project: its
// name, whether it was analyzed, its assigned pattern and its labels.
func corpusDigest(c *corpus.Corpus) string {
	h := sha256.New()
	for _, p := range c.Projects {
		fmt.Fprintf(h, "%s\x00%t\x00%v\x00%+v\n", p.Name, p.Analyzed, p.Assigned(), p.Labels)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// worker is the parent's handle on one worker process.
type worker struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Scanner
	setup time.Duration // exec to ready
	procs int           // the worker's GOMAXPROCS

	stopped bool
	err     error // the exit status stop saw
}

func startWorker(corpusPath string) (*worker, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), workerEnv+"="+corpusPath)
	cmd.Stderr = os.Stderr
	bindLifetime(cmd)
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	w := &worker{cmd: cmd, in: in, out: bufio.NewScanner(outPipe)}
	w.out.Buffer(make([]byte, 64<<10), 1<<20)
	var ready workerReady
	if err := w.read(&ready); err != nil || !ready.Ready {
		w.stop()
		return nil, fmt.Errorf("corpus worker did not start: %v", err)
	}
	w.setup = time.Since(start)
	w.procs = ready.GOMAXPROCS
	return w, nil
}

func (w *worker) read(v any) error {
	if !w.out.Scan() {
		if err := w.out.Err(); err != nil {
			return err
		}
		return io.ErrUnexpectedEOF
	}
	return json.Unmarshal(w.out.Bytes(), v)
}

func (w *worker) pass(cmd passCmd) (passReport, error) {
	var r passReport
	data, err := json.Marshal(cmd)
	if err != nil {
		return r, err
	}
	if _, err := w.in.Write(append(data, '\n')); err != nil {
		return r, err
	}
	err = w.read(&r)
	return r, err
}

// stop closes the worker's stdin, which ends its command loop, and waits
// for it to exit. Later calls return the first call's error.
func (w *worker) stop() error {
	if !w.stopped {
		w.stopped = true
		w.in.Close()
		w.err = w.cmd.Wait()
	}
	return w.err
}

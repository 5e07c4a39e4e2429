// Package vcs provides the minimal repository substrate the analysis
// pipeline needs: a chronological sequence of commits, each carrying full
// snapshots of the files it touches plus a count of source-code lines
// touched. It stands in for the local git clones the paper's authors used:
// the pipeline consumes only (timestamped DDL versions, per-commit source
// activity), and that is exactly what this model carries.
package vcs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"schemaevo/internal/faultinject"
)

// fault optionally injects chaos into the package's filesystem reads (the
// "vcs.open" and "vcs.read" sites), so extraction robustness can be tested
// against I/O errors, stalls, and corrupted snapshot bytes. The default is
// nil: no injection, zero overhead beyond an atomic load.
var fault atomic.Pointer[faultinject.Injector]

// SetFaultInjector installs (or, with nil, removes) the injector applied
// to this package's repository reads. Intended for chaos tests and the
// CLIs' -fault-seed mode.
func SetFaultInjector(in *faultinject.Injector) { fault.Store(in) }

// injectRead applies a configured fault at a read site: KindErr returns an
// injected transient error, KindDelay stalls briefly. Corrupt faults are
// handled by the call sites that hold bytes.
func injectRead(site, key string) error {
	in := fault.Load()
	switch in.At(site, key) {
	case faultinject.KindErr:
		return &faultinject.Error{Site: site, Key: key}
	case faultinject.KindDelay:
		in.Sleep(context.Background())
	}
	return nil
}

// Commit is one repository commit. Files carries the full post-commit
// content of each touched file (snapshot semantics, as obtained from
// `git show <rev>:<path>`); Deleted lists files removed by the commit.
type Commit struct {
	ID      string            `json:"id"`
	Time    time.Time         `json:"time"`
	Message string            `json:"message,omitempty"`
	Files   map[string]string `json:"files,omitempty"`
	Deleted []string          `json:"deleted,omitempty"`
	// SrcLines is the number of source-code lines touched by the commit
	// in non-DDL files. It feeds the project (source) heartbeat of Fig. 1.
	SrcLines int `json:"src_lines,omitempty"`
}

// Repo is an ordered commit history for one project.
type Repo struct {
	Name    string   `json:"name"`
	Commits []Commit `json:"commits"`
}

// Validate checks structural invariants: at least one commit, and
// non-decreasing commit times.
func (r *Repo) Validate() error {
	if len(r.Commits) == 0 {
		return fmt.Errorf("vcs: repo %q has no commits", r.Name)
	}
	for i := 1; i < len(r.Commits); i++ {
		if r.Commits[i].Time.Before(r.Commits[i-1].Time) {
			return fmt.Errorf("vcs: repo %q commit %d (%s) precedes commit %d (%s)",
				r.Name, i, r.Commits[i].Time.Format(time.RFC3339),
				i-1, r.Commits[i-1].Time.Format(time.RFC3339))
		}
	}
	return nil
}

// Start returns the time of the originating commit (the paper's V_p^0).
func (r *Repo) Start() time.Time { return r.Commits[0].Time }

// End returns the time of the last commit.
func (r *Repo) End() time.Time { return r.Commits[len(r.Commits)-1].Time }

// LifetimeMonths returns the project life span in whole months,
// inclusive of both the first and last month (a project whose commits all
// fall in one calendar month has a lifetime of 1).
func (r *Repo) LifetimeMonths() int {
	return MonthIndex(r.Start(), r.End()) + 1
}

// MonthIndex returns the zero-based calendar-month offset of t from start.
func MonthIndex(start, t time.Time) int {
	return (t.Year()*12 + int(t.Month())) - (start.Year()*12 + int(start.Month()))
}

// FileVersion is one snapshot of a file.
type FileVersion struct {
	Time    time.Time
	Content string
	// Deleted marks a version that removes the file.
	Deleted bool
}

// FileHistory returns the chronological snapshots of path, one per commit
// that touched it.
func (r *Repo) FileHistory(path string) []FileVersion {
	var out []FileVersion
	for _, c := range r.Commits {
		if content, ok := c.Files[path]; ok {
			out = append(out, FileVersion{Time: c.Time, Content: content})
			continue
		}
		for _, d := range c.Deleted {
			if d == path {
				out = append(out, FileVersion{Time: c.Time, Deleted: true})
				break
			}
		}
	}
	return out
}

// IsDDLPath reports whether a path looks like a schema definition file.
func IsDDLPath(path string) bool {
	ext := strings.ToLower(filepath.Ext(path))
	return ext == ".sql" || ext == ".ddl"
}

// DDLPaths returns every DDL file path ever touched, sorted.
func (r *Repo) DDLPaths() []string {
	seen := map[string]bool{}
	for _, c := range r.Commits {
		for p := range c.Files {
			if IsDDLPath(p) {
				seen[p] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// MainDDLPath picks the schema file to analyze: the DDL path with the
// most versions, ties broken by earliest first appearance and then by
// name. It returns "" when the repo has no DDL file.
func (r *Repo) MainDDLPath() string {
	type cand struct {
		versions int
		first    int
	}
	stats := map[string]*cand{}
	for i, c := range r.Commits {
		for p := range c.Files {
			if !IsDDLPath(p) {
				continue
			}
			s, ok := stats[p]
			if !ok {
				s = &cand{first: i}
				stats[p] = s
			}
			s.versions++
		}
	}
	best := ""
	for p, s := range stats {
		if best == "" {
			best = p
			continue
		}
		b := stats[best]
		if s.versions > b.versions ||
			(s.versions == b.versions && (s.first < b.first ||
				(s.first == b.first && p < best))) {
			best = p
		}
	}
	return best
}

// MonthlySrcLines aggregates the source heartbeat by calendar month,
// indexed from the originating commit's month. The returned slice has
// LifetimeMonths() entries.
func (r *Repo) MonthlySrcLines() []int {
	out := make([]int, r.LifetimeMonths())
	start := r.Start()
	for _, c := range r.Commits {
		out[MonthIndex(start, c.Time)] += c.SrcLines
	}
	return out
}

// WriteJSON serializes the repo.
func (r *Repo) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("vcs: encoding repo %q: %w", r.Name, err)
	}
	return nil
}

// ReadJSON deserializes a repo and validates it. Only whitespace may
// follow the repo value.
func ReadJSON(rd io.Reader) (*Repo, error) {
	data, err := ReadAll(rd)
	if err != nil {
		return nil, fmt.Errorf("vcs: reading repo: %w", err)
	}
	r, err := DecodeJSON(data)
	if err != nil {
		return nil, fmt.Errorf("vcs: decoding repo: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// ReadAll reads rd to EOF like io.ReadAll, but when rd is a regular file
// it sizes the buffer from the file's length up front, so a file is read
// in one allocation instead of a chain of doublings and copies.
func ReadAll(rd io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	if f, ok := rd.(interface{ Stat() (fs.FileInfo, error) }); ok {
		if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
			buf.Grow(int(fi.Size()) + bytes.MinRead)
		}
	}
	_, err := buf.ReadFrom(rd)
	return buf.Bytes(), err
}

// SaveFile writes the repo to path as JSON.
func (r *Repo) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("vcs: %w", err)
	}
	defer f.Close()
	if err := r.WriteJSON(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a repo from a JSON file.
func LoadFile(path string) (*Repo, error) {
	if err := injectRead("vcs.open", path); err != nil {
		return nil, fmt.Errorf("vcs: %w", err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("vcs: %w", err)
	}
	defer f.Close()
	return ReadJSON(f)
}

// versionFileRe matches the on-disk version layout accepted by
// ReadVersionDir: an optional ordinal, a date, and the .sql extension,
// e.g. "0003_2014-07-01.sql" or "2014-07-01.sql".
var versionFileRe = regexp.MustCompile(`^(?:\d+_)?(\d{4}-\d{2}-\d{2})\.sql$`)

// ReadVersionDir builds a single-file repo from a directory of dated
// schema snapshots named NNNN_YYYY-MM-DD.sql (or YYYY-MM-DD.sql). The
// synthetic repo has one commit per snapshot, all touching "schema.sql".
func ReadVersionDir(dir string) (*Repo, error) {
	if err := injectRead("vcs.open", dir); err != nil {
		return nil, fmt.Errorf("vcs: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("vcs: %w", err)
	}
	type dated struct {
		name string
		t    time.Time
	}
	var files []dated
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		m := versionFileRe.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		t, err := time.Parse("2006-01-02", m[1])
		if err != nil {
			return nil, fmt.Errorf("vcs: %s: %w", e.Name(), err)
		}
		files = append(files, dated{e.Name(), t})
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("vcs: %s contains no NNNN_YYYY-MM-DD.sql snapshots", dir)
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].t.Equal(files[j].t) {
			return files[i].t.Before(files[j].t)
		}
		return files[i].name < files[j].name
	})
	repo := &Repo{Name: filepath.Base(dir)}
	for i, f := range files {
		path := filepath.Join(dir, f.name)
		if err := injectRead("vcs.read", path); err != nil {
			return nil, fmt.Errorf("vcs: %w", err)
		}
		content, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("vcs: %w", err)
		}
		if in := fault.Load(); in.At("vcs.read.bytes", path) == faultinject.KindCorrupt {
			in.Mangle(content, path)
		}
		repo.Commits = append(repo.Commits, Commit{
			ID:      fmt.Sprintf("v%04d", i),
			Time:    f.t,
			Message: "schema snapshot " + f.name,
			Files:   map[string]string{"schema.sql": string(content)},
		})
	}
	return repo, nil
}

// WriteVersionDir writes the repo's main DDL file history as dated
// snapshots into dir, the inverse of ReadVersionDir.
func WriteVersionDir(r *Repo, dir string) error {
	path := r.MainDDLPath()
	if path == "" {
		return fmt.Errorf("vcs: repo %q has no DDL file", r.Name)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("vcs: %w", err)
	}
	for i, v := range r.FileHistory(path) {
		if v.Deleted {
			continue
		}
		name := fmt.Sprintf("%04d_%s.sql", i, v.Time.Format("2006-01-02"))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(v.Content), 0o644); err != nil {
			return fmt.Errorf("vcs: %w", err)
		}
	}
	return nil
}

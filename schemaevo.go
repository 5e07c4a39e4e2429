// Package schemaevo analyzes the time-related behaviour of relational
// schema evolution, reproducing the taxonomy of "Time-Related Patterns Of
// Schema Evolution" (Vassiliadis & Karakasidis, EDBT 2025).
//
// Given a project's history of DDL snapshots, the library reconstructs
// the logical schema per version, detects attribute-level change, builds
// the monthly heartbeat and its cumulative line, computes the paper's
// time-related measures (§3.2), quantizes them to the Table 1 labels, and
// classifies the project into one of the eight patterns of §4:
//
//	Be Quick or Be Dead:        Flatliner, Radical Sign, Sigmoid, Late Riser
//	Stairway to Heaven:         Quantum Steps, Regularly Curated
//	Scared to Fall Asleep Again: Siesta, Smoking Funnel
//
// The typical entry points are AnalyzeDir (a directory of dated .sql
// snapshots), AnalyzeRepo (an in-memory commit history), and
// GeneratePaperCorpus (the calibrated 151-project synthetic corpus that
// regenerates the paper's evaluation).
package schemaevo

import (
	"context"
	"fmt"

	"schemaevo/internal/chart"
	"schemaevo/internal/core"
	"schemaevo/internal/corpus"
	"schemaevo/internal/gitrepo"
	"schemaevo/internal/history"
	"schemaevo/internal/metrics"
	"schemaevo/internal/pipeline"
	"schemaevo/internal/quantize"
	"schemaevo/internal/synth"
	"schemaevo/internal/vcs"
)

// Pattern identifies one of the eight time-related patterns (or
// Unclassified).
type Pattern = core.Pattern

// The eight patterns and the sentinel.
const (
	Unclassified     = core.Unclassified
	Flatliner        = core.Flatliner
	RadicalSign      = core.RadicalSign
	Sigmoid          = core.Sigmoid
	LateRiser        = core.LateRiser
	QuantumSteps     = core.QuantumSteps
	RegularlyCurated = core.RegularlyCurated
	Siesta           = core.Siesta
	SmokingFunnel    = core.SmokingFunnel
)

// AllPatterns lists the eight patterns in the paper's order.
var AllPatterns = core.AllPatterns

// Family identifies one of the three pattern families.
type Family = core.Family

// The three families.
const (
	BeQuickOrBeDead         = core.BeQuickOrBeDead
	StairwayToHeaven        = core.StairwayToHeaven
	ScaredToFallAsleepAgain = core.ScaredToFallAsleepAgain
)

// FamilyOf returns the family of a pattern.
func FamilyOf(p Pattern) Family { return core.FamilyOf(p) }

// Describe returns the paper's prose characterization of a pattern.
func Describe(p Pattern) string { return core.Describe(p) }

// DescribeFamily returns the paper's prose characterization of a family.
func DescribeFamily(f Family) string { return core.DescribeFamily(f) }

// Repo is a project commit history: the input to AnalyzeRepo. Build one
// programmatically, load it with LoadRepo, or read a snapshot directory
// with AnalyzeDir.
type Repo = vcs.Repo

// Commit is one repository commit (timestamp, file snapshots, source
// lines touched).
type Commit = vcs.Commit

// Measures holds the §3.2 time-related measures of a project.
type Measures = metrics.Measures

// Labels is the Table 1 ordinal profile of a project.
type Labels = quantize.Labels

// History is the reconstructed schema history (versions, deltas,
// heartbeats).
type History = history.History

// Corpus is a collection of projects under study.
type Corpus = corpus.Corpus

// Project is one corpus member.
type Project = corpus.Project

// Analysis is the complete result of analyzing one project.
type Analysis struct {
	// Project is the repository name.
	Project string
	// Pattern is the time-related pattern the project follows. When the
	// profile satisfies no formal definition exactly, this is the
	// nearest pattern and Exact is false.
	Pattern Pattern
	// Exact reports whether the profile satisfies the pattern's formal
	// definition (Defs 4.1-4.8).
	Exact bool
	// Family is the pattern's family.
	Family Family
	// Measures and Labels are the underlying §3.2 measures and Table 1
	// labels.
	Measures Measures
	Labels   Labels
	// History gives access to versions, deltas and heartbeats.
	History *History
}

// SchemaLine returns the cumulative fractional schema-evolution line
// (one value per month of project life).
func (a *Analysis) SchemaLine() []float64 { return a.History.SchemaCumulative() }

// SourceLine returns the cumulative fractional source-code line.
func (a *Analysis) SourceLine() []float64 { return a.History.SourceCumulative() }

// Chart renders the Fig. 1-style ASCII chart of the project.
func (a *Analysis) Chart() string {
	title := fmt.Sprintf("%s — %s (%s)", a.Project, a.Pattern, a.Family)
	return chart.ASCII(a.SchemaLine(), a.SourceLine(), chart.Options{Title: title})
}

// ChartSVG renders the chart as an SVG document.
func (a *Analysis) ChartSVG() string {
	title := fmt.Sprintf("%s — %s", a.Project, a.Pattern)
	return chart.SVG(a.SchemaLine(), a.SourceLine(), chart.Options{Title: title})
}

// AnalyzeRepo runs the full pipeline on a repository: schema-history
// extraction, measures, labels and pattern classification.
func AnalyzeRepo(r *Repo) (*Analysis, error) {
	return AnalyzeRepoCached(r, "")
}

// AnalyzeRepoCached is AnalyzeRepo backed by the content-hash result
// cache rooted at cacheDir (empty disables caching): re-analysis of an
// unchanged repository restores its history and measures from disk
// instead of recomputing them.
func AnalyzeRepoCached(r *Repo, cacheDir string) (*Analysis, error) {
	a, _, err := AnalyzeRepoWithOptions(r, PipelineOptions{CacheDir: cacheDir})
	return a, err
}

// AnalyzeRepoWithOptions is AnalyzeRepo under explicit pipeline options —
// cache directory, per-project deadline, fault injection — returning the
// pipeline statistics (including the degradation report, which classifies
// any failure as parse/assemble/metrics/timeout/panic) alongside the
// analysis.
func AnalyzeRepoWithOptions(r *Repo, opts PipelineOptions) (*Analysis, PipelineStats, error) {
	res, stats, err := pipeline.AnalyzeRepo(context.Background(), r, opts)
	if err != nil {
		return nil, stats, err
	}
	if !res.Measures.HasSchema {
		return nil, stats, fmt.Errorf("schemaevo: %s: the schema file never defines a logical schema", r.Name)
	}
	p, exact := core.Assign(res.Labels)
	return &Analysis{
		Project:  r.Name,
		Pattern:  p,
		Exact:    exact,
		Family:   core.FamilyOf(p),
		Measures: res.Measures,
		Labels:   res.Labels,
		History:  res.History,
	}, stats, nil
}

// AnalyzeDir analyzes a directory of dated schema snapshots named
// NNNN_YYYY-MM-DD.sql (or YYYY-MM-DD.sql).
func AnalyzeDir(dir string) (*Analysis, error) {
	r, err := vcs.ReadVersionDir(dir)
	if err != nil {
		return nil, err
	}
	return AnalyzeRepo(r)
}

// LoadRepo reads a repository from its JSON serialization.
func LoadRepo(path string) (*Repo, error) { return vcs.LoadFile(path) }

// AnalyzeGit extracts the schema history of a local git checkout (the
// current branch, oldest first) and analyzes it. Requires a git binary on
// the PATH. maxCommits bounds the walk (0 = all commits).
func AnalyzeGit(dir string, maxCommits int) (*Analysis, error) {
	r, err := gitrepo.Extract(dir, maxCommits)
	if err != nil {
		return nil, err
	}
	return AnalyzeRepo(r)
}

// GeneratePaperCorpus generates the calibrated 151-project corpus whose
// aggregate behaviour matches the paper's published statistics. The same
// seed always yields the same corpus. The corpus is returned un-analyzed;
// call AnalyzeCorpus (or Corpus.Analyze) before reading derived fields.
func GeneratePaperCorpus(seed int64) (*Corpus, error) {
	return synth.PaperCorpus(seed)
}

// GenerateRandomCorpus generates n projects drawn from the paper's
// pattern mix — useful for scale testing.
func GenerateRandomCorpus(n int, seed int64) (*Corpus, error) {
	return synth.RandomCorpus(n, seed)
}

// AnalyzeCorpus runs the pipeline on every project of a corpus with the
// paper's quantization.
func AnalyzeCorpus(c *Corpus) error {
	return c.Analyze(quantize.DefaultScheme())
}

// AnalyzeCorpusParallel is AnalyzeCorpus run by the pipeline across
// workers shards; workers <= 0 selects GOMAXPROCS. Results are identical
// to the sequential form. Unlike AnalyzeCorpus, it does not stop at the
// first failure: every project is attempted and all failures are returned
// joined, in corpus order.
func AnalyzeCorpusParallel(c *Corpus, workers int) error {
	_, err := pipeline.Run(context.Background(), c, pipeline.Options{Shards: workers})
	return err
}

// PipelineOptions configures the shard-per-core analysis pipeline:
// shard count, fail-fast vs collect-all error handling, and the
// content-hash cache directory. The zero value is a sensible default
// (one shard per GOMAXPROCS).
type PipelineOptions = pipeline.Options

// PipelineStats reports what a pipeline run did, including the cache-hit
// counters.
type PipelineStats = pipeline.Stats

// AnalyzeCorpusPipeline runs the corpus through the shard-per-core
// pipeline (parse → assemble → measures/labels per project, shards
// claiming projects from a shared cursor) with the paper's quantization.
// Results are identical to AnalyzeCorpus at any shard count; with a cache
// directory configured, unchanged projects are restored from disk instead
// of recomputed. All failures are collected and attributed per project
// unless opts.FailFast is set.
func AnalyzeCorpusPipeline(ctx context.Context, c *Corpus, opts PipelineOptions) (PipelineStats, error) {
	return pipeline.Run(ctx, c, opts)
}

// ClassifyLabels applies the formal definitions of §4 to a label profile;
// it returns Unclassified when no definition matches exactly.
func ClassifyLabels(l Labels) Pattern { return core.Classify(l) }

// ClassifyNearest always returns a pattern: the exact match when one
// exists, otherwise the pattern with the most defining clauses satisfied
// (best alternative for Def. 4.5 and 4.6; the four Be Quick or Be Dead
// patterns also score "at most 3 active growth months", which no
// definition states); a tie goes to the pattern first in AllPatterns
// order.
func ClassifyNearest(l Labels) Pattern { return core.ClassifyNearest(l) }

package pipeline

import (
	"fmt"
	"sort"
	"strings"
)

// FailureKind is the taxonomy bucket of a per-project failure. A degraded
// run classifies every loss so operators can tell a corpus-quality problem
// (parse) from an infrastructure one (timeout, panic, cache).
type FailureKind string

const (
	// FailParse covers repository validation and DDL snapshot parsing.
	FailParse FailureKind = "parse"
	// FailAssemble covers history assembly (diffing, heartbeats).
	FailAssemble FailureKind = "assemble"
	// FailMetrics covers measure computation and validation.
	FailMetrics FailureKind = "metrics"
	// FailTimeout marks a project that exceeded Options.ProjectTimeout and
	// was quarantined by the watchdog.
	FailTimeout FailureKind = "timeout"
	// FailPanic marks a project whose analysis panicked; the panic was
	// recovered inside the worker and attributed to the project.
	FailPanic FailureKind = "panic"
	// FailAnomaly marks a recorded data anomaly (e.g. a version
	// timestamped outside the project span, clamped by history.Assemble).
	// Anomalies never fail a project: they appear in the report's
	// Anomalies list, not in per-project failures.
	FailAnomaly FailureKind = "anomaly"
)

// ProjectFailure is one project's attributed loss.
type ProjectFailure struct {
	Project string      `json:"project"`
	Kind    FailureKind `json:"kind"`
	Error   string      `json:"error"`
}

// ProjectAnomaly is one recorded data anomaly of a project that was
// nonetheless analyzed (FailAnomaly taxonomy).
type ProjectAnomaly struct {
	Project string `json:"project"`
	Message string `json:"message"`
}

// DegradationReport states exactly what a pipeline run skipped and why,
// so a degraded run never silently shrinks the corpus. It is always
// attached to Stats; Degraded reports whether anything was lost.
type DegradationReport struct {
	// Projects and Analyzed mirror Stats.
	Projects int `json:"projects"`
	Analyzed int `json:"analyzed"`
	// Failures lists every lost project in corpus order.
	Failures []ProjectFailure `json:"failures,omitempty"`
	// ByKind counts the failures per taxonomy bucket.
	ByKind map[FailureKind]int `json:"by_kind,omitempty"`
	// Quarantined names projects whose worker was abandoned by the
	// deadline watchdog (a subset of the timeout failures); their
	// goroutines finish in the background and their results are discarded.
	Quarantined []string `json:"quarantined,omitempty"`
	// CacheIncidents counts non-fatal cache faults (unreadable entries,
	// failed writes, corrupt entries read as misses). They
	// degrade speed, never results.
	CacheIncidents int `json:"cache_incidents,omitempty"`
	// Anomalies lists recorded data anomalies of successfully analyzed
	// projects (out-of-span version timestamps and the like), in corpus
	// order. They taint data quality, not the analysis itself, so they
	// do not make the run Degraded.
	Anomalies []ProjectAnomaly `json:"anomalies,omitempty"`
}

// Degraded reports whether the run lost any project.
func (r *DegradationReport) Degraded() bool {
	return r != nil && len(r.Failures) > 0
}

// LossFraction is the share of the corpus that was lost, in [0, 1].
func (r *DegradationReport) LossFraction() float64 {
	if r == nil || r.Projects == 0 {
		return 0
	}
	return float64(len(r.Failures)) / float64(r.Projects)
}

// Render prints the report for humans: the headline, the taxonomy
// breakdown, each lost project with its reason, and the quarantine list.
func (r *DegradationReport) Render() string {
	var sb strings.Builder
	if !r.Degraded() {
		fmt.Fprintf(&sb, "degradation: none (%d/%d projects analyzed)", r.analyzed(), r.projects())
		if r != nil && r.CacheIncidents > 0 {
			fmt.Fprintf(&sb, "; %d cache incident(s) recovered", r.CacheIncidents)
		}
		if r != nil && len(r.Anomalies) > 0 {
			fmt.Fprintf(&sb, "; %d data anomaly(ies) recorded", len(r.Anomalies))
		}
		sb.WriteString("\n")
		r.renderAnomalies(&sb)
		return sb.String()
	}
	fmt.Fprintf(&sb, "degradation: %d of %d projects lost (%.1f%%)\n",
		len(r.Failures), r.Projects, r.LossFraction()*100)
	kinds := make([]string, 0, len(r.ByKind))
	for k := range r.ByKind {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&sb, "  %-8s %d\n", k, r.ByKind[FailureKind(k)])
	}
	for _, f := range r.Failures {
		fmt.Fprintf(&sb, "  [%s] %s: %s\n", f.Kind, f.Project, firstLine(f.Error))
	}
	if len(r.Quarantined) > 0 {
		fmt.Fprintf(&sb, "  quarantined (worker abandoned): %s\n", strings.Join(r.Quarantined, ", "))
	}
	if r.CacheIncidents > 0 {
		fmt.Fprintf(&sb, "  cache incidents recovered: %d\n", r.CacheIncidents)
	}
	r.renderAnomalies(&sb)
	return sb.String()
}

// renderAnomalies appends the data-anomaly lines, if any.
func (r *DegradationReport) renderAnomalies(sb *strings.Builder) {
	if r == nil {
		return
	}
	for _, a := range r.Anomalies {
		fmt.Fprintf(sb, "  [%s] %s: %s\n", FailAnomaly, a.Project, firstLine(a.Message))
	}
}

func (r *DegradationReport) projects() int {
	if r == nil {
		return 0
	}
	return r.Projects
}

func (r *DegradationReport) analyzed() int {
	if r == nil {
		return 0
	}
	return r.Analyzed
}

// firstLine truncates multi-line error text (panic stacks) for display.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + " ..."
	}
	return s
}

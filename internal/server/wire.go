package server

import (
	"encoding/json"
	"net/http"

	"schemaevo/internal/core"
	"schemaevo/internal/history"
	"schemaevo/internal/metrics"
	"schemaevo/internal/pipeline"
	"schemaevo/internal/quantize"
)

// APISchemaVersion identifies the /v1 response layout. Every /v1 body
// carries it as schema_version; consumers should reject versions they do
// not understand. Bump it whenever a field is added, removed, or changes
// meaning — the golden API tests pin the byte-exact rendering. Version 2
// added the project body's "dialect" field.
const APISchemaVersion = 2

// measuresWire is the §3.2 measures in wire form: explicit JSON names in
// a pinned order, independent of the internal struct so internal renames
// never leak into the API.
type measuresWire struct {
	PUPMonths             int     `json:"pup_months"`
	BirthMonth            int     `json:"birth_month"`
	BirthPct              float64 `json:"birth_pct"`
	BirthVolumePct        float64 `json:"birth_volume_pct"`
	TopBandMonth          int     `json:"top_band_month"`
	TopBandPct            float64 `json:"top_band_pct"`
	IntervalBirthToTopPct float64 `json:"interval_birth_to_top_pct"`
	IntervalTopToEndPct   float64 `json:"interval_top_to_end_pct"`
	HasVault              bool    `json:"has_vault"`
	ActiveGrowthMonths    int     `json:"active_growth_months"`
	ActivePctGrowth       float64 `json:"active_pct_growth"`
	ActivePctPUP          float64 `json:"active_pct_pup"`
	TotalActivity         int     `json:"total_activity"`
	Expansion             int     `json:"expansion"`
	Maintenance           int     `json:"maintenance"`
	TablesAtBirth         int     `json:"tables_at_birth"`
	AttrsAtBirth          int     `json:"attrs_at_birth"`
	TablesAtEnd           int     `json:"tables_at_end"`
	AttrsAtEnd            int     `json:"attrs_at_end"`
}

// labelsWire is the Table 1 ordinal profile, rendered as strings.
type labelsWire struct {
	BirthVolume        string `json:"birth_volume"`
	BirthTiming        string `json:"birth_timing"`
	TopBandPoint       string `json:"top_band_point"`
	IntervalBirthToTop string `json:"interval_birth_to_top"`
	IntervalTopToEnd   string `json:"interval_top_to_end"`
	ActivePctGrowth    string `json:"active_pct_growth"`
	ActivePctPUP       string `json:"active_pct_pup"`
	HasVault           bool   `json:"has_vault"`
	ActiveGrowthMonths int    `json:"active_growth_months"`
}

// timelineWire summarizes the reconstructed history.
type timelineWire struct {
	Versions        int `json:"versions"`
	ActiveVersions  int `json:"active_versions"`
	Months          int `json:"months"`
	ActiveMonths    int `json:"active_months"`
	LongestDormancy int `json:"longest_dormancy"`
}

// projectWire is the body of POST /v1/projects and GET /v1/projects/{id}.
type projectWire struct {
	SchemaVersion int          `json:"schema_version"`
	ID            string       `json:"id"`
	Project       string       `json:"project"`
	Dialect       string       `json:"dialect"`
	Pattern       string       `json:"pattern"`
	Family        string       `json:"family"`
	Exact         bool         `json:"exact"`
	Measures      measuresWire `json:"measures"`
	Labels        labelsWire   `json:"labels"`
	Timeline      timelineWire `json:"timeline"`
}

// patternCountWire is one pattern's tally in GET /v1/corpus/stats.
type patternCountWire struct {
	Pattern string `json:"pattern"`
	Family  string `json:"family"`
	Count   int    `json:"count"`
}

// corpusStatsWire is the body of GET /v1/corpus/stats.
type corpusStatsWire struct {
	SchemaVersion int                `json:"schema_version"`
	Projects      int                `json:"projects"`
	Analyzed      int                `json:"analyzed"`
	Patterns      []patternCountWire `json:"patterns"`
}

// projectRefWire names one corpus project and its stable resource ID
// (usable with GET /v1/projects/{id}).
type projectRefWire struct {
	Name string `json:"name"`
	ID   string `json:"id"`
}

// patternGroupWire is one pattern's membership in GET /v1/corpus/patterns.
type patternGroupWire struct {
	Pattern  string           `json:"pattern"`
	Family   string           `json:"family"`
	Count    int              `json:"count"`
	Projects []projectRefWire `json:"projects"`
}

// corpusPatternsWire is the body of GET /v1/corpus/patterns.
type corpusPatternsWire struct {
	SchemaVersion int                `json:"schema_version"`
	Groups        []patternGroupWire `json:"groups"`
}

// errorWire is every non-2xx /v1 body: the message, and for failed
// analyses the pipeline's structured degradation report.
type errorWire struct {
	SchemaVersion int                         `json:"schema_version"`
	Error         string                      `json:"error"`
	Degradation   *pipeline.DegradationReport `json:"degradation,omitempty"`
}

// buildProjectWire derives the wire form of one analyzed project. The
// rendering is a pure function of (id, project, history, measures), so
// byte-identical inputs — e.g. a result decoded from the LRU store vs one
// freshly computed — produce byte-identical bodies.
func buildProjectWire(id, project string, h *history.History, m metrics.Measures, scheme quantize.Scheme) projectWire {
	var labels quantize.Labels
	pattern, exact := core.Unclassified, false
	if m.HasSchema {
		labels = quantize.Compute(m, scheme)
		pattern, exact = core.Assign(labels)
	}
	sum := h.Summarize()
	return projectWire{
		SchemaVersion: APISchemaVersion,
		ID:            id,
		Project:       project,
		Dialect:       h.Dialect.String(),
		Pattern:       pattern.String(),
		Family:        core.FamilyOf(pattern).String(),
		Exact:         exact,
		Measures: measuresWire{
			PUPMonths:             m.PUPMonths,
			BirthMonth:            m.BirthMonth,
			BirthPct:              m.BirthPct,
			BirthVolumePct:        m.BirthVolumePct,
			TopBandMonth:          m.TopBandMonth,
			TopBandPct:            m.TopBandPct,
			IntervalBirthToTopPct: m.IntervalBirthToTopPct,
			IntervalTopToEndPct:   m.IntervalTopToEndPct,
			HasVault:              m.HasVault,
			ActiveGrowthMonths:    m.ActiveGrowthMonths,
			ActivePctGrowth:       m.ActivePctGrowth,
			ActivePctPUP:          m.ActivePctPUP,
			TotalActivity:         m.TotalActivity,
			Expansion:             m.Expansion,
			Maintenance:           m.Maintenance,
			TablesAtBirth:         m.TablesAtBirth,
			AttrsAtBirth:          m.AttrsAtBirth,
			TablesAtEnd:           m.TablesAtEnd,
			AttrsAtEnd:            m.AttrsAtEnd,
		},
		Labels: labelsWire{
			BirthVolume:        labels.BirthVolume.String(),
			BirthTiming:        labels.BirthTiming.String(),
			TopBandPoint:       labels.TopBandPoint.String(),
			IntervalBirthToTop: labels.IntervalBirthToTop.String(),
			IntervalTopToEnd:   labels.IntervalTopToEnd.String(),
			ActivePctGrowth:    labels.ActivePctGrowth.String(),
			ActivePctPUP:       labels.ActivePctPUP.String(),
			HasVault:           labels.HasVault,
			ActiveGrowthMonths: labels.ActiveGrowthMonths,
		},
		Timeline: timelineWire{
			Versions:        sum.Versions,
			ActiveVersions:  sum.ActiveVersions,
			Months:          sum.Months,
			ActiveMonths:    sum.ActiveMonths,
			LongestDormancy: sum.LongestDormancy,
		},
	}
}

// assignedPattern derives the pattern a result counts under through the
// same core.Assign call as buildProjectWire, so a project's aggregate
// bucket always matches its wire body.
func assignedPattern(m metrics.Measures, scheme quantize.Scheme) core.Pattern {
	if !m.HasSchema {
		return core.Unclassified
	}
	pat, _ := core.Assign(quantize.Compute(m, scheme))
	return pat
}

// buildRenderEntry renders one project's wire body through the
// append-based encoder into an immutable cache entry: the exact bytes
// json.MarshalIndent would produce (plus trailing newline), the strong
// ETag over them, and the summary fields the batch stream needs.
func buildRenderEntry(id, project string, h *history.History, m metrics.Measures, scheme quantize.Scheme, corpusOwned bool) renderEntry {
	wire := buildProjectWire(id, project, h, m, scheme)
	body := appendProjectWire(make([]byte, 0, 1536), &wire)
	return renderEntry{
		body:    body,
		etag:    etagFor(body),
		project: wire.Project,
		pattern: wire.Pattern,
		corpus:  corpusOwned,
	}
}

// renderJSON is the byte-stable rendering every endpoint uses: indented
// JSON with a trailing newline (struct field order pins key order;
// MarshalIndent output is deterministic for identical values).
func renderJSON(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// writeJSON renders v and writes it with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := renderJSON(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
}

// writeError renders a non-2xx body.
func writeError(w http.ResponseWriter, status int, msg string, rep *pipeline.DegradationReport) {
	writeJSON(w, status, errorWire{SchemaVersion: APISchemaVersion, Error: msg, Degradation: rep})
}

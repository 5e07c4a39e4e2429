// Package history reconstructs the evolution of a project's schema from
// its repository: one logical-schema snapshot per DDL-file version, the
// attribute-level delta between consecutive versions, and the monthly
// heartbeats (schema and source) whose cumulative fractional form is the
// line the paper's patterns are read from (Fig. 1).
package history

import (
	"fmt"
	"time"

	"schemaevo/internal/diff"
	"schemaevo/internal/schema"
	"schemaevo/internal/sqlddl"
	"schemaevo/internal/sqlddl/dialect"
	"schemaevo/internal/vcs"
)

// Version is one state of the schema in time.
type Version struct {
	// Seq is the zero-based version index.
	Seq  int
	Time time.Time
	// Schema is the logical schema after this version.
	Schema *schema.Schema
	// Delta is the change from the previous version; for the first
	// version it is the change from the empty schema (schema birth).
	Delta *diff.Delta
	// Notes records parse/apply anomalies encountered in this version.
	Notes []schema.Note
}

// History is the full schema history of a project, aligned to the
// project's lifetime (not just the schema file's).
type History struct {
	// Project is the repository name.
	Project string
	// DDLPath is the schema file that was analyzed.
	DDLPath string
	// Dialect is the SQL dialect the snapshots were parsed under
	// (DialectGeneric for the legacy union grammar).
	Dialect sqlddl.DialectID
	// Versions are the chronological schema versions.
	Versions []Version
	// Start and End bound the Project Update Period: the originating
	// commit (V_p^0) and the last commit of the whole project.
	Start, End time.Time
	// SchemaMonthly is the schema heartbeat: affected attributes per
	// calendar month, indexed from the project's first month; length is
	// the project lifetime in months.
	SchemaMonthly []int
	// SourceMonthly is the project (source-code) heartbeat in lines
	// touched per month, same indexing.
	SourceMonthly []int
	// ExpansionTotal and MaintenanceTotal split the total activity per
	// §6.3.
	ExpansionTotal   int
	MaintenanceTotal int
}

// Months returns the project lifetime in months (the PUP in month
// granules).
func (h *History) Months() int { return len(h.SchemaMonthly) }

// TotalActivity returns the total schema-evolution volume: the sum of
// affected attributes over all versions, including schema birth.
func (h *History) TotalActivity() int {
	n := 0
	for _, v := range h.SchemaMonthly {
		n += v
	}
	return n
}

// FromRepo builds the history of the repo's main DDL file under the
// generic dialect: the sequential composition of the two pipeline
// stages, parsing every snapshot (ParseVersionsIn) and assembling the
// history (Assemble). It fails only on structural problems (invalid
// repo, no DDL file); content problems are tolerated and recorded per
// version.
func FromRepo(r *vcs.Repo) (*History, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	path := r.MainDDLPath()
	if path == "" {
		return nil, fmt.Errorf("history: repo %q has no DDL file", r.Name)
	}
	rc := schema.AcquireReconstructor()
	defer schema.ReleaseReconstructor(rc)
	parsed, err := ParseVersionsIn(rc, r, path, sqlddl.Generic)
	if err != nil {
		return nil, err
	}
	return Assemble(r, path, parsed), nil
}

// ParsedVersion is one parsed snapshot of a DDL file: the reconstructed
// logical schema plus any parse/apply anomalies. It is the unit of work of
// the pipeline's parse stage; Assemble turns a sequence of them into a
// History.
type ParsedVersion struct {
	Time   time.Time
	Schema *schema.Schema
	Notes  []schema.Note
}

// ParseVersionsIn parses every snapshot of the given DDL file into a
// logical schema under dialect d, on a caller-provided reconstructor (so
// pipeline workers reuse one reconstructor's buffers and intern table
// across many projects; per-project caches are reset on entry). This is
// the CPU-heavy stage of history reconstruction (lexing, parsing, schema
// building). Snapshots are reconstructed incrementally — each version
// reuses the parse and schema work of its predecessor where the statement
// prefix is unchanged — with results identical to a full per-version
// rebuild (see schema.Reconstructor).
//
// A nil dialect means auto-detect: the detector scores the first
// surviving (non-deleted) snapshot's content, which is stable under
// suffix extension — appending newer versions can never change the
// detection input, so incremental re-analysis agrees with a fresh run.
// The dialect actually used is readable from rc.DialectID() after the
// call.
func ParseVersionsIn(rc *schema.Reconstructor, r *vcs.Repo, path string, d sqlddl.Dialect) ([]ParsedVersion, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	fileVersions := r.FileHistory(path)
	if len(fileVersions) == 0 {
		return nil, fmt.Errorf("history: repo %q has no versions of %q", r.Name, path)
	}
	if d == nil {
		d = sqlddl.Generic
		for _, fv := range fileVersions {
			if !fv.Deleted {
				d = dialect.Detect(fv.Content)
				break
			}
		}
	}
	rc.SetDialect(d)
	rc.ResetProject()
	out := make([]ParsedVersion, 0, len(fileVersions))
	for _, fv := range fileVersions {
		pv := ParsedVersion{Time: fv.Time}
		if fv.Deleted {
			pv.Schema = schema.New()
			rc.ResetFile() // chain broken: next content starts from scratch
		} else {
			pv.Schema, pv.Notes = rc.Build(fv.Content)
		}
		// Published versions share table storage; seal each snapshot so a
		// stray mutation cannot corrupt a sibling version.
		pv.Schema.Seal()
		out = append(out, pv)
	}
	return out, nil
}

// AnomalyStmt is the sentinel Note.Stmt value marking a history-level data
// anomaly (as opposed to a statement-level parse/apply note, whose Stmt is
// a non-negative statement index).
const AnomalyStmt = -1

// Assemble builds the history from the parsed snapshots: the
// attribute-level delta between consecutive versions, the monthly
// heartbeats, and the expansion/maintenance split. The parsed slice must
// come from ParseVersionsIn on the same repo and path.
//
// A version timestamped outside the project's [Start, End] span — a
// misdated commit, clock skew, or a corrupt upstream record — is a data
// anomaly, not a structural failure: its activity is clamped to the
// nearest month of the span and the version gets an AnomalyStmt note, so
// the wrinkle is visible downstream instead of panicking on a heartbeat
// index out of range.
func Assemble(r *vcs.Repo, path string, parsed []ParsedVersion) *History {
	h := newShell(r, path)
	seq := diff.NewSequence(nil)
	defer seq.Close()
	for _, pv := range parsed {
		h.appendVersion(pv.Time, pv.Schema, seq.Next(pv.Schema), pv.Notes)
	}
	return h
}

// AssembleExtend assembles the history of a repo whose DDL file history
// extends a previously assembled one: the first len(prev.Versions)
// snapshots are carried over from prev (schemas, deltas and parse/apply
// notes are pure functions of unchanged inputs), and only the suffix —
// freshly parsed by the caller, typically on a Reconstructor primed with
// the last carried-over snapshot — is diffed and appended.
//
// Everything derived from the repo's full commit timeline is recomputed
// from scratch: Start/End, the heartbeats, the expansion/maintenance
// split, and the out-of-span clamp notes (the span the clamp is judged
// against changes as the project's lifetime grows). The caller must have
// verified that the new repo's file history of path pairwise-equals the
// old one over the carried-over prefix; under that precondition the result
// is byte-identical (through the cache codec) to a full Assemble of the
// new repo — the differential suite pins this.
func AssembleExtend(r *vcs.Repo, path string, prev *History, suffix []ParsedVersion) *History {
	h := newShell(r, path)
	var last *schema.Schema
	for i := range prev.Versions {
		pv := &prev.Versions[i]
		h.appendVersion(pv.Time, pv.Schema, pv.Delta, stripSpanAnomalies(pv.Notes))
		last = pv.Schema
	}
	seq := diff.NewSequence(last)
	defer seq.Close()
	for _, pv := range suffix {
		h.appendVersion(pv.Time, pv.Schema, seq.Next(pv.Schema), pv.Notes)
	}
	return h
}

// newShell builds the version-less skeleton of a history: identity, span,
// and the heartbeats with only the source line filled in.
func newShell(r *vcs.Repo, path string) *History {
	h := &History{
		Project: r.Name,
		DDLPath: path,
		Start:   r.Start(),
		End:     r.End(),
	}
	h.SchemaMonthly = make([]int, r.LifetimeMonths())
	h.SourceMonthly = r.MonthlySrcLines()
	return h
}

// appendVersion files one snapshot: clamp out-of-span timestamps (with an
// AnomalyStmt note), post the delta to the schema heartbeat and the
// expansion/maintenance totals. It is the single shared body of Assemble
// and AssembleExtend, so a carried-over prefix cannot drift from what a
// full assembly would have produced.
func (h *History) appendVersion(t time.Time, s *schema.Schema, d *diff.Delta, notes []schema.Note) {
	seq := len(h.Versions)
	v := Version{Seq: seq, Time: t, Schema: s, Delta: d, Notes: notes}
	months := len(h.SchemaMonthly)
	month := vcs.MonthIndex(h.Start, t)
	if month < 0 || month >= months {
		clamped := 0
		if month >= months {
			clamped = months - 1
		}
		v.Notes = append(v.Notes, schema.Note{
			Stmt: AnomalyStmt,
			Msg: fmt.Sprintf("version %d timestamped %s outside the project span [%s, %s]; activity clamped to month %d",
				seq, t.Format("2006-01-02"), h.Start.Format("2006-01-02"), h.End.Format("2006-01-02"), clamped),
		})
		month = clamped
	}
	h.Versions = append(h.Versions, v)
	h.SchemaMonthly[month] += d.Total()
	h.ExpansionTotal += d.Expansion()
	h.MaintenanceTotal += d.Maintenance()
}

// stripSpanAnomalies removes history-level AnomalyStmt notes from a
// version's note list, recovering the parse/apply notes as the parse stage
// produced them: nil when nothing remains (Build never returns a non-nil
// empty slice), a fresh slice otherwise (never aliasing the input, whose
// backing array may be shared with a published History).
func stripSpanAnomalies(notes []schema.Note) []schema.Note {
	n := 0
	for _, note := range notes {
		if note.Stmt != AnomalyStmt {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]schema.Note, 0, n)
	for _, note := range notes {
		if note.Stmt != AnomalyStmt {
			out = append(out, note)
		}
	}
	return out
}

// Cumulative returns the cumulative fractional activity of a monthly
// heartbeat: entry i is the fraction of total activity attained by the
// end of month i, in [0,1]. A heartbeat with zero total yields all zeros.
func Cumulative(monthly []int) []float64 {
	out := make([]float64, len(monthly))
	total := 0
	for _, v := range monthly {
		total += v
	}
	if total == 0 {
		return out
	}
	run := 0
	for i, v := range monthly {
		run += v
		out[i] = float64(run) / float64(total)
	}
	return out
}

// SchemaCumulative returns the cumulative fractional schema line of Fig. 1.
func (h *History) SchemaCumulative() []float64 { return Cumulative(h.SchemaMonthly) }

// SourceCumulative returns the cumulative fractional source line of Fig. 1.
func (h *History) SourceCumulative() []float64 { return Cumulative(h.SourceMonthly) }

// FinalSchema returns the schema after the last version, or nil when the
// history is empty.
func (h *History) FinalSchema() *schema.Schema {
	if len(h.Versions) == 0 {
		return nil
	}
	return h.Versions[len(h.Versions)-1].Schema
}

// NoteCount returns the total number of anomalies recorded across
// versions — a quick data-quality indicator.
func (h *History) NoteCount() int {
	n := 0
	for _, v := range h.Versions {
		n += len(v.Notes)
	}
	return n
}

// SpanAnomalies returns the messages of every history-level data anomaly
// (AnomalyStmt notes: out-of-span timestamps and the like), in version
// order. Empty for a clean history.
func (h *History) SpanAnomalies() []string {
	var out []string
	for _, v := range h.Versions {
		for _, n := range v.Notes {
			if n.Stmt == AnomalyStmt {
				out = append(out, n.Msg)
			}
		}
	}
	return out
}

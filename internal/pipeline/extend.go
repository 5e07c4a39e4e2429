package pipeline

import (
	"schemaevo/internal/history"
	"schemaevo/internal/metrics"
	"schemaevo/internal/schema"
	"schemaevo/internal/sqlddl/dialect"
	"schemaevo/internal/vcs"
)

// Extends reports whether next's history of the DDL file at path extends
// prevRepo's: the same file, with prevRepo's snapshots as an exact prefix
// (same times — including UTC offset, which the codec persists — same
// content, same deletions). Under this predicate the per-version parse
// work of the prefix is reusable verbatim.
func Extends(prevRepo, next *vcs.Repo, path string) bool {
	if path == "" || next.MainDDLPath() != path || prevRepo.MainDDLPath() != path {
		return false
	}
	old := prevRepo.FileHistory(path)
	cur := next.FileHistory(path)
	if len(cur) < len(old) {
		return false
	}
	for i := range old {
		o, c := &old[i], &cur[i]
		if !o.Time.Equal(c.Time) || o.Content != c.Content || o.Deleted != c.Deleted {
			return false
		}
		_, oOff := o.Time.Zone()
		_, cOff := c.Time.Zone()
		if oOff != cOff {
			return false
		}
	}
	return true
}

// ExtendResult is ExtendResultAs for a caller analyzing under the default
// (generic) dialect selection: the result carries Fingerprint(next).
func ExtendResult(prev *CachedResult, prevRepo, next *vcs.Repo) (res *CachedResult, ok bool) {
	if res, ok = extend(prev, prevRepo, next); ok {
		res.Fingerprint = Fingerprint(next)
	}
	return res, ok
}

// ExtendResultAs re-analyzes next incrementally from a previous result:
// when next's DDL history extends prevRepo's, the prefix's parsed
// schemas, deltas and notes are carried over from prev, the Reconstructor
// is primed with the last carried-over snapshot, and only the suffix is
// parsed and diffed. fingerprint is next's FingerprintDialect under the
// caller's dialect selection — the one a full analysis of next would
// carry, which the caller already holds — so next is not hashed again.
// The returned result is then byte-identical (through EncodeResult) to a
// full cold analysis of next under that selection — the differential
// suites pin this across whole corpora and dialect selections.
//
// ok is false when the histories do not extend (different DDL file,
// rewritten prefix, no DDL file at all) or the extended measures fail
// validation; callers fall back to the full pipeline.
func ExtendResultAs(prev *CachedResult, prevRepo, next *vcs.Repo, fingerprint string) (res *CachedResult, ok bool) {
	if res, ok = extend(prev, prevRepo, next); ok {
		res.Fingerprint = fingerprint
	}
	return res, ok
}

// extend is ExtendResultAs without the fingerprint.
func extend(prev *CachedResult, prevRepo, next *vcs.Repo) (*CachedResult, bool) {
	if prev == nil || prev.History == nil {
		return nil, false
	}
	path := prev.History.DDLPath
	if !Extends(prevRepo, next, path) {
		return nil, false
	}
	old := prevRepo.FileHistory(path)
	if len(old) != len(prev.History.Versions) {
		return nil, false
	}
	cur := next.FileHistory(path)

	rc := schema.AcquireReconstructor()
	defer schema.ReleaseReconstructor(rc)
	// The carried-over prefix was parsed under prev's dialect; the suffix
	// must be too, or the primed statement cache and the appended schemas
	// would disagree with a cold re-analysis.
	rc.SetDialect(dialect.ByID(prev.History.Dialect))
	rc.ResetProject()
	if n := len(old); n > 0 && !old[n-1].Deleted {
		rc.Prime(old[n-1].Content)
	}
	suffix := make([]history.ParsedVersion, 0, len(cur)-len(old))
	for _, fv := range cur[len(old):] {
		pv := history.ParsedVersion{Time: fv.Time}
		if fv.Deleted {
			pv.Schema = schema.New()
			rc.ResetFile()
		} else {
			pv.Schema, pv.Notes = rc.Build(fv.Content)
		}
		pv.Schema.Seal()
		suffix = append(suffix, pv)
	}

	h := history.AssembleExtend(next, path, prev.History, suffix)
	h.Dialect = prev.History.Dialect
	m := metrics.Compute(h)
	if err := m.Validate(); err != nil {
		// A full run would degrade with FailMetrics; let it, with its
		// proper error report.
		return nil, false
	}
	return &CachedResult{Project: next.Name, History: h, Measures: m}, true
}

package schema

import (
	"sync"

	"schemaevo/internal/sqlddl"
)

// tableProto is the memoized materialization of one CREATE TABLE
// statement: the table it defines plus the per-column anomaly messages.
// Both depend only on the statement, so they are cached per AST node and
// shared (copy-on-write) by every schema version that executes it.
type tableProto struct {
	table *Table
	msgs  []string
}

// Reconstructor rebuilds the per-version schemas of one DDL file
// incrementally. Successive versions of real (and synthetic) schema
// histories overwhelmingly share a statement prefix with their
// predecessor — migration scripts are append-only, and full dumps differ
// in a handful of statements — so instead of re-lexing, re-parsing and
// re-applying the whole script per version, the reconstructor:
//
//  1. parses each version through a sqlddl.Session, which memoizes
//     statement ASTs by text, making the per-version parse a sequence of
//     cache hits;
//  2. detects when the new version's statement list extends the previous
//     version's, and in that case clones the predecessor schema
//     copy-on-write and applies only the suffix;
//  3. on a full rebuild, materializes CREATE TABLE statements through a
//     per-AST-node prototype cache, so unchanged tables remain
//     pointer-identical across versions and the differ can skip them.
//
// The result is required to be indistinguishable from the full rebuild
// (ParseAndBuild) — same schemas, same notes, same nil-ness of every
// slice through the cache codec; TestReconstructorMatchesFullRebuild
// pins this.
//
// A Reconstructor is not safe for concurrent use. Acquire/Release recycle
// instances (and their parse sessions) through a pool.
type Reconstructor struct {
	sess   *sqlddl.Session
	protos map[*sqlddl.CreateTable]*tableProto
	types  typeMemo

	units     []sqlddl.Unit
	prevUnits []sqlddl.Unit
	prev      *Schema
	prevNotes []Note // apply notes of prev (parse notes excluded)
	prevStmts int    // parsed (non-nil) statements in prev
	prevValid bool
}

// NewReconstructor returns a reconstructor backed by a pooled parse
// session.
func NewReconstructor() *Reconstructor {
	return &Reconstructor{
		sess:   sqlddl.AcquireSession(),
		protos: make(map[*sqlddl.CreateTable]*tableProto, 64),
		types:  make(typeMemo, 64),
	}
}

var reconstructorPool = sync.Pool{New: func() any { return NewReconstructor() }}

// AcquireReconstructor returns a reconstructor from the package pool,
// reset for a fresh file history.
func AcquireReconstructor() *Reconstructor {
	rc := reconstructorPool.Get().(*Reconstructor)
	return rc
}

// ReleaseReconstructor clears per-project state (the statement and
// prototype caches retain parsed source text), restores the generic
// dialect, and returns the reconstructor to the pool. The unit buffers
// are zeroed up to their capacity: their texts are views of the last
// source, which a pooled reconstructor must not keep alive.
func ReleaseReconstructor(rc *Reconstructor) {
	rc.SetDialect(sqlddl.Generic)
	rc.ResetProject()
	clear(rc.units[:cap(rc.units)])
	clear(rc.prevUnits[:cap(rc.prevUnits)])
	reconstructorPool.Put(rc)
}

// SetDialect switches the parse dialect for subsequent Build calls.
// Cached statement ASTs and table prototypes were produced under the
// previous dialect's grammar, so an actual dialect change invalidates
// them along with the incremental chain; re-setting the current dialect
// is a no-op.
func (rc *Reconstructor) SetDialect(d sqlddl.Dialect) {
	if d == nil {
		d = sqlddl.Generic
	}
	if d.ID() == rc.sess.DialectID() {
		return
	}
	rc.sess.SetDialect(d)
	clear(rc.protos)
	rc.ResetFile()
}

// DialectID returns the dialect the reconstructor currently parses under.
func (rc *Reconstructor) DialectID() sqlddl.DialectID { return rc.sess.DialectID() }

// ResetProject drops all cached state tied to previously parsed content:
// the statement cache (whose keys alias source text), the table
// prototypes (keyed by cached AST nodes), and the previous-version chain.
// The type normalization memo outlives projects up to its bound.
func (rc *Reconstructor) ResetProject() {
	rc.sess.ClearCache()
	clear(rc.protos)
	if len(rc.types) > sqlddl.MaxInterned {
		clear(rc.types)
	}
	rc.ResetFile()
}

// ResetFile breaks the incremental chain (a new file history begins, or
// the file was deleted) while keeping the statement and prototype caches,
// which remain valid for the same project.
func (rc *Reconstructor) ResetFile() {
	rc.prev = nil
	rc.prevNotes = nil
	rc.prevStmts = 0
	rc.prevValid = false
}

// Build parses src and returns the schema it defines plus the anomaly
// notes, exactly as ParseAndBuild would, reusing the previous version's
// work where the statement prefix is unchanged.
func (rc *Reconstructor) Build(src string) (*Schema, []Note) {
	rc.units, rc.prevUnits = rc.prevUnits, rc.units
	units := rc.sess.ParseUnits(src, rc.units[:0])
	rc.units = units

	var s *Schema
	var notes []Note
	parsed, from := 0, 0
	if rc.prevValid && prefixMatches(rc.prevUnits, units) {
		s = rc.prev.CloneCOW()
		notes = append(notes, rc.prevNotes...)
		parsed = rc.prevStmts
		from = len(rc.prevUnits)
	} else if n := createTables(units); n > 0 {
		s = NewWithCapacity(n)
	} else {
		s = New()
	}
	for i := from; i < len(units); i++ {
		if st := units[i].Stmt; st != nil {
			notes = rc.applyStatement(s, notes, parsed, st)
			parsed++
		}
	}
	applyNotes := notes
	// Parse-error notes come after all apply notes, mirroring ParseAndBuild.
	for i := range units {
		if e := units[i].Err; e != nil {
			notes = append(notes, Note{Stmt: e.Stmt, Msg: "parse: " + e.Msg})
		}
	}
	rc.prev = s
	rc.prevNotes = applyNotes
	rc.prevStmts = parsed
	rc.prevValid = true
	return s, notes
}

// Prime replays a previously built source text so that the next Build
// call can extend it incrementally, exactly as if src had been built in
// sequence; the schema and notes are discarded. It is the hand-off point
// for stores that kept a file history's last snapshot: re-feeding that one
// version seeds the session's statement cache and the prefix chain, so
// re-analyzing versions N+1.. costs only the suffix.
func (rc *Reconstructor) Prime(src string) {
	rc.Build(src)
}

// createTables counts the CREATE TABLE statements among units: the table
// count a rebuilt version reaches unless it drops or renames some, so its
// schema is sized once instead of growing table by table.
func createTables(units []sqlddl.Unit) int {
	n := 0
	for i := range units {
		if _, ok := units[i].Stmt.(*sqlddl.CreateTable); ok {
			n++
		}
	}
	return n
}

// prefixMatches reports whether cur begins with exactly the units of
// prev. Parsed units compare by AST pointer (the session memoizes by
// text, so equal text means the same pointer); unparsed units (comments,
// parse errors) compare by text.
func prefixMatches(prev, cur []sqlddl.Unit) bool {
	if len(prev) > len(cur) {
		return false
	}
	for i := range prev {
		pu, cu := &prev[i], &cur[i]
		if pu.Stmt != cu.Stmt {
			return false
		}
		if pu.Stmt == nil && pu.Text != cu.Text {
			return false
		}
	}
	return true
}

// applyStatement applies one statement, routing CREATE TABLE through the
// prototype cache; all note values match Schema.applyStatement exactly.
func (rc *Reconstructor) applyStatement(s *Schema, notes []Note, idx int, stmt sqlddl.Statement) []Note {
	ct, ok := stmt.(*sqlddl.CreateTable)
	if !ok {
		return append(notes, s.applyStatement(idx, stmt, rc.types)...)
	}
	proto := rc.protos[ct]
	if proto == nil {
		t, msgs := buildCreateTable(ct, rc.types)
		proto = &tableProto{table: t, msgs: msgs}
		rc.protos[ct] = proto
	}
	if _, exists := s.Table(ct.Name); exists {
		if ct.IfNotExists {
			return notes
		}
		notes = append(notes, Note{idx, "CREATE TABLE " + ct.Name + ": replacing existing definition"})
	}
	for _, m := range proto.msgs {
		notes = append(notes, Note{idx, m})
	}
	// The prototype is shared by every version executing this statement;
	// later in-version mutations go copy-on-write through writable.
	proto.table.shared = true
	s.AddTable(proto.table)
	return notes
}

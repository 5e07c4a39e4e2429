// Package store is the service's source of truth for analyzed projects: a
// sharded, content-addressed, two-tier result store. The hot tier is a
// bounded in-memory LRU of encoded results; the disk tier (optional —
// enabled by Config.Dir) is one append-friendly segment file per shard
// holding CRC-32C-framed records of both the analysis result and the
// submitted source snapshot, in the pipeline's binary codec.
//
// Persisting the source next to the result is what turns eviction and
// corruption from data loss into extra work: a result missing from every
// tier is recomputable from its snapshot, and a project submitting version
// N+1 can be re-analyzed incrementally against its stored parse. The store
// itself is policy-free — it keeps bytes, liveness and integrity; analysis
// belongs to the caller.
//
// Durability model: records are appended and flushed per operation, with
// no fsync — the store targets crash-consistency (every record is either
// wholly readable or quarantined by its frame CRC), not power-loss
// durability. Compaction is the exception: it replaces records that are
// already on disk, so it fsyncs its replacement file before the rename
// and the directory after it, and a power loss can never swap those
// records for an unwritten file. Liveness is resolved at recovery time
// by per-name max-sequence: an overwrite simply appends newer records, a
// delete appends a tombstone, and compaction rewrites a shard keeping
// live records (at their original sequence numbers) plus any tombstone
// that still guards the name — a tombstone may outrank stale records of
// the same name in OTHER shards, so it is only dropped once the name is
// live again under a newer sequence. See DESIGN.md §11 for the recovery
// invariants.
package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"

	"schemaevo/internal/faultinject"
	"schemaevo/internal/telemetry"
)

// ErrReadOnly is returned by mutating operations while the store is in
// read-only mode: the disk-budget watchdog found free space below its
// floor. Only the watchdog's recovery leaves it; an ENOSPC on a flush
// fails that write alone and does not enter it.
// Reads keep serving; callers should answer retryable unavailability
// (HTTP 503) rather than treating this as data loss.
var ErrReadOnly = errors.New("store: read-only mode")

// IsDiskFull reports whether err is an out-of-space condition (real or
// injected via the "store.diskfull" fault site).
func IsDiskFull(err error) bool {
	return errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EDQUOT)
}

// Config parameterizes a Store. The zero value is a valid memory-only
// store with default hot-tier bounds.
type Config struct {
	// Dir is the disk tier's directory; empty selects memory-only mode
	// (source snapshots retained unboundedly in memory, results only in
	// the hot tier — still recomputable after eviction).
	Dir string
	// Shards is the number of disk segment files. <= 0 selects 8. The
	// count is fixed at directory creation (persisted in store.json);
	// reopening ignores a differing value.
	Shards int
	// HotEntries caps the hot tier's entry count. <= 0 selects 1024.
	HotEntries int
	// HotBytes caps the hot tier's total encoded-result bytes. <= 0
	// selects 256 MiB.
	HotBytes int64
	// CompactMinBytes is the per-shard garbage floor below which
	// compaction never triggers. <= 0 selects 1 MiB.
	CompactMinBytes int64
	// Telemetry receives store metrics; nil disables (nil-safe collector).
	Telemetry *telemetry.Collector
	// Fault injects deterministic chaos into segment flushes (site
	// "store.flush", keyed by project ID). nil disables.
	Fault *faultinject.Injector
	// OnCommit, when set, is called after each mutation (Put, PutResult,
	// Delete) is fully visible to readers, once per affected project ID
	// — for Put that includes the superseded previous ID. seq is the
	// mutation's durable sequence number, monotonic across the store, so
	// callers can use it as an epoch. Called without store locks held;
	// implementations must not call back into the Store.
	OnCommit func(id string, seq uint64)
}

// Entry is one project's stored state, submitted to Put.
type Entry struct {
	// ID is the short content-hash resource ID; Fingerprint the full one.
	ID, Name, Fingerprint string
	// Source is the pipeline.EncodeRepo snapshot of the submitted repo.
	Source []byte
	// Result is the pipeline.EncodeResult analysis, nil when unknown.
	Result []byte
}

// ref locates one framed record in a shard's segment file. The zero ref
// means absent. seq is the record's durable sequence number — compaction
// re-frames the record with the same seq, so liveness order never drifts
// from logical write order.
type ref struct {
	start, total     int64
	bodyOff, bodyLen int64
	seq              uint64
}

func (r ref) ok() bool { return r.total != 0 }

// meta is the in-memory index entry of one live project.
type meta struct {
	id, name, fp string
	srcMem       []byte // memory mode: the snapshot itself
	src, res     ref    // disk mode: record locations
}

// tomb tracks one durable tombstone a shard must carry through
// compaction. A deleted name's stale records may survive in other shards
// (each version's content-hash ID shards independently), and only this
// tombstone's higher sequence keeps them dead at recovery — so it stays
// until the name is live again under a newer sequence.
type tomb struct {
	id, name, fp string
	seq          uint64
	bytes        int64 // framed size on disk, for live/garbage accounting
}

// shard is one lock domain: a slice of the ID space with its own index
// and segment file.
type shard struct {
	mu      sync.Mutex
	file    *os.File // nil in memory mode
	path    string
	size    int64 // physical append offset
	byID    map[string]*meta
	tombs   map[string]tomb // guarded deleted names (disk mode)
	live    int64           // bytes of records referenced by the index
	garbage int64           // bytes of dead/damaged records awaiting compaction
}

// Store is the two-tier result store. All methods are safe for concurrent
// use. Construct with Open.
type Store struct {
	dir        string
	shards     []*shard
	hot        *hotTier
	tel        *telemetry.Collector
	cnt        *telemetry.Counters // chained to tel's; holds this store's Stats
	fault      *faultinject.Injector
	onCommit   func(id string, seq uint64)
	compactMin int64
	seq        atomic.Uint64

	nmu    sync.Mutex
	byName map[string]nameEntry // live project name -> ID + sequence

	// Read-only mode: entered and left by the disk-budget watchdog alone.
	// An ENOSPC fails only the write that met it.
	readOnly atomic.Bool

	// Background scrubber lifecycle (StartScrubber/StopScrubber).
	smu       sync.Mutex
	scrubStop chan struct{}
	scrubDone chan struct{}
}

// ReadOnly reports whether the store is currently refusing mutations.
func (s *Store) ReadOnly() bool { return s.readOnly.Load() }

// setReadOnly enters or leaves read-only mode, counting each entry.
func (s *Store) setReadOnly(on bool) {
	if !s.readOnly.CompareAndSwap(!on, on) {
		return
	}
	if on {
		s.cnt.Add(telemetry.StoreReadOnlyEvents, 1)
		s.tel.SetGauge("store.read_only", 1)
	} else {
		s.tel.SetGauge("store.read_only", 0)
	}
}

// nameEntry is the name index's value: the live ID and the sequence of
// the Put that made it live. Compaction compares the sequence against a
// tombstone's to decide whether the tombstone is superseded.
type nameEntry struct {
	id  string
	seq uint64
}

// storeMeta is the store.json sidecar pinning layout parameters that must
// not drift between opens.
type storeMeta struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

// storeMetaVersion names the format of a directory's records. Version 2:
// source records hold flat (format-2) snapshots. A build decodes only its
// own snapshot format, so Open refuses a directory of another version,
// which must be re-ingested.
const storeMetaVersion = 2

// Open builds the store, recovering the disk tier's index by scanning
// every shard segment: damaged records are quarantined (counted, skipped,
// their space reclaimed by the next compaction) and every intact record is
// resolved by per-name max-sequence into the live set.
func Open(cfg Config) (*Store, error) {
	s := &Store{
		dir:        cfg.Dir,
		tel:        cfg.Telemetry,
		cnt:        telemetry.NewCounters(cfg.Telemetry.Counters()),
		fault:      cfg.Fault,
		onCommit:   cfg.OnCommit,
		compactMin: cfg.CompactMinBytes,
		byName:     map[string]nameEntry{},
	}
	if s.compactMin <= 0 {
		s.compactMin = 1 << 20
	}
	s.hot = newHotTier(cfg.HotEntries, cfg.HotBytes, s.cnt)

	n := cfg.Shards
	if n <= 0 {
		n = 8
	}
	if s.dir == "" {
		for i := 0; i < n; i++ {
			s.shards = append(s.shards, &shard{byID: map[string]*meta{}})
		}
		s.seq.Store(1)
		return s, nil
	}

	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	metaPath := filepath.Join(s.dir, "store.json")
	data, err := os.ReadFile(metaPath)
	switch {
	case err == nil:
		var sm storeMeta
		// An unreadable or implausible store.json must not silently fall
		// back to the configured count: a mismatch with the on-disk layout
		// would leave whole shard files unscanned, their records invisible
		// with no error. Refuse to open instead.
		if jerr := json.Unmarshal(data, &sm); jerr != nil {
			return nil, fmt.Errorf("store: invalid %s: %w", metaPath, jerr)
		} else if sm.Version != storeMetaVersion {
			// Opening anyway would fail one entry at a time, as each
			// record met a decoder of another format.
			return nil, fmt.Errorf("store: %s is store format version %d, this build reads version %d; re-ingest the histories into a new directory", metaPath, sm.Version, storeMetaVersion)
		} else if sm.Shards <= 0 {
			return nil, fmt.Errorf("store: invalid %s: shard count %d", metaPath, sm.Shards)
		} else {
			n = sm.Shards // the on-disk layout wins over the config
		}
	case os.IsNotExist(err):
		data, _ := json.Marshal(storeMeta{Version: storeMetaVersion, Shards: n})
		if werr := os.WriteFile(metaPath, append(data, '\n'), 0o644); werr != nil {
			return nil, fmt.Errorf("store: %w", werr)
		}
	default:
		return nil, fmt.Errorf("store: %w", err)
	}

	type located struct {
		rec
		shard int
	}
	var all []located
	for i := 0; i < n; i++ {
		sh := &shard{
			byID:  map[string]*meta{},
			tombs: map[string]tomb{},
			path:  filepath.Join(s.dir, fmt.Sprintf("shard-%03d.seg", i)),
		}
		f, err := os.OpenFile(sh.path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		sh.file = f
		data, err := os.ReadFile(sh.path)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("store: %w", err)
		}
		sh.size = int64(len(data))
		if len(data) == 0 {
			if _, err := f.Write([]byte(segHeader)); err != nil {
				f.Close()
				return nil, fmt.Errorf("store: %w", err)
			}
			sh.size = int64(len(segHeader))
		} else {
			// A damaged file header is not fatal: scan from 0 and let the
			// frame magic resynchronize.
			base := int64(0)
			if len(data) >= len(segHeader) && string(data[:len(segHeader)]) == segHeader {
				base = int64(len(segHeader))
			}
			recs, bad := scanRecords(data[base:], base)
			s.cnt.Add(telemetry.StoreQuarantined, int64(bad))
			for _, r := range recs {
				all = append(all, located{rec: r, shard: i})
			}
		}
		s.shards = append(s.shards, sh)
	}

	// Liveness: the newest record per name decides — a tombstone kills the
	// name, any other kind elects its ID. (Result records participate so a
	// project whose source record was damaged still serves its result.)
	maxSeq := uint64(0)
	nameW := map[string]located{}
	for _, r := range all {
		if r.seq > maxSeq {
			maxSeq = r.seq
		}
		if w, ok := nameW[r.name]; !ok || r.seq > w.seq {
			nameW[r.name] = r
		}
	}
	liveID := map[string]bool{}
	chosen := map[int64]bool{} // by shard-qualified record start offset
	for name, w := range nameW {
		if w.kind != recTombstone {
			liveID[w.id] = true
			s.byName[name] = nameEntry{id: w.id, seq: w.seq}
			continue
		}
		// A winning tombstone keeps guarding: stale records of this name
		// may survive in other shards, and only this record's sequence
		// outranks them. Track it so compaction carries it forward.
		sh := s.shards[w.shard]
		sh.tombs[name] = tomb{id: w.id, name: name, fp: w.fp, seq: w.seq, bytes: w.total}
		sh.live += w.total
		chosen[int64(w.shard)<<40|w.start] = true
	}
	bestSrc := map[string]located{}
	bestRes := map[string]located{}
	for _, r := range all {
		if !liveID[r.id] {
			continue
		}
		switch r.kind {
		case recSource:
			if b, ok := bestSrc[r.id]; !ok || r.seq > b.seq {
				bestSrc[r.id] = r
			}
		case recResult:
			if b, ok := bestRes[r.id]; !ok || r.seq > b.seq {
				bestRes[r.id] = r
			}
		}
	}
	place := func(r located) ref {
		chosen[int64(r.shard)<<40|r.start] = true
		s.shards[r.shard].live += r.total
		return ref{start: r.start, total: r.total, bodyOff: r.bodyOff, bodyLen: r.bodyLen, seq: r.seq}
	}
	for _, id := range sortedKeys(liveID) {
		var m *meta
		shIdx := -1
		if r, ok := bestSrc[id]; ok {
			m = &meta{id: id, name: r.name, fp: r.fp, src: place(r)}
			shIdx = r.shard
		}
		if r, ok := bestRes[id]; ok {
			if m == nil {
				m = &meta{id: id, name: r.name, fp: r.fp}
				shIdx = r.shard
			}
			m.res = place(r)
		}
		if m != nil {
			s.shards[shIdx].byID[id] = m
		}
	}
	for _, r := range all {
		if !chosen[int64(r.shard)<<40|r.start] {
			s.shards[r.shard].garbage += r.total
		}
	}
	s.seq.Store(maxSeq + 1)
	return s, nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedTombNames(m map[string]tomb) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Close stops the background scrubber (if running) and releases the
// segment file handles. The store must not be used afterwards.
func (s *Store) Close() error {
	s.StopScrubber()
	var first error
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.file != nil {
			if err := sh.file.Close(); err != nil && first == nil {
				first = err
			}
			sh.file = nil
		}
		sh.mu.Unlock()
	}
	return first
}

// shardFor maps an ID to its lock domain.
func (s *Store) shardFor(id string) *shard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return s.shards[h.Sum32()%uint32(len(s.shards))]
}

// Len returns the number of live projects.
func (s *Store) Len() int {
	s.nmu.Lock()
	defer s.nmu.Unlock()
	return len(s.byName)
}

// LatestID returns the live project ID for a name — the hook the
// incremental re-analysis path uses to find the version a new submission
// may extend.
func (s *Store) LatestID(name string) (string, bool) {
	s.nmu.Lock()
	defer s.nmu.Unlock()
	e, ok := s.byName[name]
	return e.id, ok
}

// Get returns the encoded result for id and which tier served it ("hot"
// or "disk"). A disk hit is CRC-verified and promoted to the hot tier; a
// record failing verification is quarantined — the entry survives as
// source-only, recomputable on demand.
func (s *Store) Get(id string) (data []byte, tier string, ok bool) {
	if data, ok := s.hot.get(id); ok {
		s.cnt.Add(telemetry.StoreHotHits, 1)
		s.cnt.Add(telemetry.StoreBytesRead, int64(len(data)))
		return data, "hot", true
	}
	s.cnt.Add(telemetry.StoreHotMisses, 1)
	sh := s.shardFor(id)
	sh.mu.Lock()
	m := sh.byID[id]
	if m == nil || sh.file == nil || !m.res.ok() {
		sh.mu.Unlock()
		s.cnt.Add(telemetry.StoreDiskMisses, 1)
		return nil, "", false
	}
	body, err := sh.readRecordLocked(m.res)
	if err != nil {
		s.quarantineLocked(sh, &m.res)
		sh.mu.Unlock()
		s.cnt.Add(telemetry.StoreDiskMisses, 1)
		return nil, "", false
	}
	sh.mu.Unlock()
	s.hot.put(id, body)
	s.cnt.Add(telemetry.StoreDiskHits, 1)
	s.cnt.Add(telemetry.StoreBytesRead, int64(len(body)))
	return body, "disk", true
}

// Source returns the persisted source snapshot for id
// (pipeline.EncodeRepo bytes), CRC-verified on the disk tier.
func (s *Store) Source(id string) ([]byte, bool) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m := sh.byID[id]
	if m == nil {
		return nil, false
	}
	if sh.file == nil {
		return m.srcMem, m.srcMem != nil
	}
	if !m.src.ok() {
		return nil, false
	}
	body, err := sh.readRecordLocked(m.src)
	if err != nil {
		s.quarantineLocked(sh, &m.src)
		return nil, false
	}
	return body, true
}

// quarantineLocked retires a record reference that failed verification:
// the entry keeps serving from its other artifacts, the bytes await
// compaction.
func (s *Store) quarantineLocked(sh *shard, r *ref) {
	sh.garbage += r.total
	sh.live -= r.total
	*r = ref{}
	s.cnt.Add(telemetry.StoreQuarantined, 1)
}

// Put stores one project: the source snapshot and (when known) the
// result, superseding any live entry with the same name. It returns the
// superseded entry's ID ("" when none, or unchanged). A failed flush
// installs nothing: no tier serves the entry and the previous version
// stays live, so callers must not acknowledge the write. An out-of-space
// flush wraps syscall.ENOSPC (see IsDiskFull). In read-only mode Put
// refuses up front with ErrReadOnly.
func (s *Store) Put(e Entry) (prevID string, err error) {
	if s.readOnly.Load() {
		return "", ErrReadOnly
	}
	end := s.seq.Add(2)
	seqSrc, seqRes := end-2, end-1
	sh := s.shardFor(e.ID)
	sh.mu.Lock()
	m := &meta{id: e.ID, name: e.Name, fp: e.Fingerprint}
	if sh.file == nil {
		m.srcMem = e.Source
	} else {
		// One frame buffer, sized up front, holds both records.
		size := recordSize(e.ID, e.Name, e.Fingerprint, len(e.Source))
		if e.Result != nil {
			size += recordSize(e.ID, e.Name, e.Fingerprint, len(e.Result))
		}
		buf := appendRecord(make([]byte, 0, size), recSource, seqSrc, e.ID, e.Name, e.Fingerprint, e.Source)
		m.src = ref{
			start: sh.size, total: int64(len(buf)),
			bodyOff: sh.size + int64(len(buf)) - 4 - int64(len(e.Source)), bodyLen: int64(len(e.Source)),
			seq: seqSrc,
		}
		if e.Result != nil {
			resStart := sh.size + int64(len(buf))
			buf = appendRecord(buf, recResult, seqRes, e.ID, e.Name, e.Fingerprint, e.Result)
			total := sh.size + int64(len(buf)) - resStart
			m.res = ref{
				start: resStart, total: total,
				bodyOff: resStart + total - 4 - int64(len(e.Result)), bodyLen: int64(len(e.Result)),
				seq: seqRes,
			}
		}
		if err = s.flushLocked(sh, e.ID, buf); err != nil {
			sh.mu.Unlock()
			return "", err
		}
		sh.live += int64(len(buf))
	}
	if old := sh.byID[e.ID]; old != nil {
		s.retireLocked(sh, old)
	}
	sh.byID[e.ID] = m
	s.maybeCompactLocked(sh)
	sh.mu.Unlock()

	if e.Result != nil {
		s.hot.put(e.ID, e.Result)
	}
	s.nmu.Lock()
	prevID = s.byName[e.Name].id
	s.byName[e.Name] = nameEntry{id: e.ID, seq: seqRes}
	s.nmu.Unlock()
	if prevID == e.ID {
		prevID = ""
	}
	if prevID != "" {
		s.invalidate(prevID)
	}
	if s.onCommit != nil {
		s.onCommit(e.ID, seqRes)
		if prevID != "" {
			s.onCommit(prevID, seqRes)
		}
	}
	return prevID, nil
}

// PutResult attaches (or refreshes) the analysis result of a live entry —
// the write-back after an on-demand re-analysis of an evicted or
// quarantined result. Like Put, a failed flush installs nothing.
func (s *Store) PutResult(id string, result []byte) error {
	if s.readOnly.Load() {
		return ErrReadOnly
	}
	seq := s.seq.Add(1) - 1
	sh := s.shardFor(id)
	sh.mu.Lock()
	m := sh.byID[id]
	if m == nil {
		sh.mu.Unlock()
		return fmt.Errorf("store: no live entry %s", id)
	}
	if sh.file != nil {
		buf := appendRecord(make([]byte, 0, recordSize(m.id, m.name, m.fp, len(result))), recResult, seq, m.id, m.name, m.fp, result)
		res := ref{
			start: sh.size, total: int64(len(buf)),
			bodyOff: sh.size + int64(len(buf)) - 4 - int64(len(result)), bodyLen: int64(len(result)),
			seq: seq,
		}
		if err := s.flushLocked(sh, id, buf); err != nil {
			sh.mu.Unlock()
			return err
		}
		if m.res.ok() {
			sh.garbage += m.res.total
			sh.live -= m.res.total
		}
		m.res = res
		sh.live += int64(len(buf))
		s.maybeCompactLocked(sh)
	}
	sh.mu.Unlock()
	s.hot.put(id, result)
	if s.onCommit != nil {
		s.onCommit(id, seq)
	}
	return nil
}

// Delete removes a live entry: a tombstone record supersedes it on disk
// (so recovery agrees), and every tier forgets it immediately. A failed
// tombstone flush leaves the entry live in every tier and returns the
// error: the delete did not happen.
func (s *Store) Delete(id string) (bool, error) {
	if s.readOnly.Load() {
		return false, ErrReadOnly
	}
	seq := s.seq.Add(1) - 1
	sh := s.shardFor(id)
	sh.mu.Lock()
	m := sh.byID[id]
	if m == nil {
		sh.mu.Unlock()
		return false, nil
	}
	if sh.file != nil {
		buf := appendRecord(make([]byte, 0, recordSize(m.id, m.name, m.fp, 0)), recTombstone, seq, m.id, m.name, m.fp, nil)
		if err := s.flushLocked(sh, id, buf); err != nil {
			sh.mu.Unlock()
			return false, err
		}
		// The tombstone is live, guarded state, not garbage-in-waiting: the
		// deleted name's stale records may survive in OTHER shards (each
		// version's ID shards independently), and only this record's higher
		// sequence keeps them dead at recovery. It is tracked and carried
		// through compaction until the name is re-created.
		if old, ok := sh.tombs[m.name]; ok {
			sh.garbage += old.bytes
			sh.live -= old.bytes
		}
		sh.tombs[m.name] = tomb{id: m.id, name: m.name, fp: m.fp, seq: seq, bytes: int64(len(buf))}
		sh.live += int64(len(buf))
	}
	s.retireLocked(sh, m)
	delete(sh.byID, id)
	s.maybeCompactLocked(sh)
	sh.mu.Unlock()

	s.hot.remove(id)
	s.nmu.Lock()
	if s.byName[m.name].id == id {
		delete(s.byName, m.name)
	}
	s.nmu.Unlock()
	if s.onCommit != nil {
		s.onCommit(id, seq)
	}
	return true, nil
}

// invalidate drops a superseded entry from the index and the hot tier
// (its records become garbage; recovery ignores them by sequence order).
func (s *Store) invalidate(id string) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	if m := sh.byID[id]; m != nil {
		s.retireLocked(sh, m)
		delete(sh.byID, id)
		s.maybeCompactLocked(sh)
	}
	sh.mu.Unlock()
	s.hot.remove(id)
}

// retireLocked accounts a meta's records as garbage.
func (s *Store) retireLocked(sh *shard, m *meta) {
	for _, r := range []ref{m.src, m.res} {
		if r.ok() {
			sh.garbage += r.total
			sh.live -= r.total
		}
	}
}

// Each calls fn for every live entry in name order, with the encoded
// result when one is currently readable (nil otherwise — evicted in
// memory mode, quarantined or pending on disk). It is the aggregate
// rebuild hook a server runs at startup; reads go through the normal
// tiers, warming the hot tier.
func (s *Store) Each(fn func(id, name string, result []byte)) {
	s.nmu.Lock()
	names := make([]string, 0, len(s.byName))
	for n := range s.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	ids := make([]string, len(names))
	for i, n := range names {
		ids[i] = s.byName[n].id
	}
	s.nmu.Unlock()
	for i, id := range ids {
		data, _, ok := s.Get(id)
		if !ok {
			data = nil
		}
		fn(id, names[i], data)
	}
}

// flushLocked writes buf at the shard's append offset, honoring the
// "store.flush" fault site: KindErr tears the write (part of the buffer
// lands, then an error), KindCorrupt mangles the buffer before a
// successful write (latent bit-rot, caught by record CRCs), KindDelay
// stalls. The append offset always advances by the bytes actually
// written, so later records land where the index says they do. On a
// failed flush those bytes count as garbage, and the caller installs
// nothing: the write is in the state a crash mid-write leaves.
func (s *Store) flushLocked(sh *shard, key string, buf []byte) error {
	// "store.slowdisk" simulates a degraded device: the write eventually
	// succeeds, it just stalls first.
	if s.fault.At("store.slowdisk", key) == faultinject.KindDelay {
		s.fault.Sleep(context.Background())
	}
	// "store.diskfull" simulates ENOSPC: nothing lands on disk and the
	// caller must not acknowledge the write. Previously acked records are
	// untouched, and the next write tries the disk again.
	if s.fault.At("store.diskfull", key) == faultinject.KindErr {
		s.cnt.Add(telemetry.StoreFlushErrors, 1)
		s.cnt.Add(telemetry.StoreDiskFullEvents, 1)
		return fmt.Errorf("store: flush: %w", syscall.ENOSPC)
	}
	switch s.fault.At("store.flush", key) {
	case faultinject.KindErr:
		// Tear at a key-derived offset so the cut can land anywhere in the
		// batch — mid-frame, between records, or inside the CRC trailer —
		// exactly like a real crash mid-write.
		h := fnv.New32a()
		h.Write([]byte(key))
		cut := 1 + int(h.Sum32())%len(buf)
		if cut >= len(buf) {
			cut = len(buf) - 1
		}
		n, _ := sh.file.WriteAt(buf[:cut], sh.size)
		sh.size += int64(n)
		sh.garbage += int64(n)
		s.cnt.Add(telemetry.StoreFlushErrors, 1)
		return &faultinject.Error{Site: "store.flush", Key: key}
	case faultinject.KindCorrupt:
		s.fault.Mangle(buf, key)
	case faultinject.KindDelay:
		s.fault.Sleep(context.Background())
	}
	n, err := sh.file.WriteAt(buf, sh.size)
	sh.size += int64(n)
	s.cnt.Add(telemetry.StoreAppends, 1)
	s.cnt.Add(telemetry.StoreBytesWritten, int64(len(buf)))
	if err != nil {
		sh.garbage += int64(n)
		s.cnt.Add(telemetry.StoreFlushErrors, 1)
		if IsDiskFull(err) {
			s.cnt.Add(telemetry.StoreDiskFullEvents, 1)
		}
		return fmt.Errorf("store: flush: %w", err)
	}
	s.cnt.Add(telemetry.StoreFlushes, 1)
	return nil
}

// readFrameLocked reads record r's whole frame into buf, growing it only
// when its capacity falls short, and verifies it. The frame is returned
// even on failure, so a caller reusing buf keeps what it grew to.
func (sh *shard) readFrameLocked(buf []byte, r ref) ([]byte, error) {
	if int64(cap(buf)) < r.total {
		buf = make([]byte, r.total)
	}
	buf = buf[:r.total]
	if _, err := sh.file.ReadAt(buf, r.start); err != nil {
		return buf, fmt.Errorf("store: read record: %w", err)
	}
	if !frameIntact(buf) {
		return buf, fmt.Errorf("store: record at %d failed verification", r.start)
	}
	return buf, nil
}

// readRecordLocked reads and verifies one framed record into a buffer of
// its own, returning the body.
func (sh *shard) readRecordLocked(r ref) ([]byte, error) {
	frame, err := sh.readFrameLocked(nil, r)
	if err != nil {
		return nil, err
	}
	return frame[r.bodyOff-r.start : r.bodyOff-r.start+r.bodyLen], nil
}

// maybeCompactLocked rewrites the shard's segment once garbage exceeds
// both the configured floor and the live volume, keeping live records —
// at their original sequence numbers, so liveness order never drifts from
// logical write order even if a crash interleaves with a cross-shard
// supersede — plus every tombstone still guarding a dead name (stale
// same-name records may survive in other shards; only the tombstone's
// higher sequence keeps them dead at recovery). Compaction is crash-safe:
// the replacement is built and fsynced in a temp file, renamed over the
// segment, and the rename fsynced, so a crash or power loss leaves either
// the old or the new file, never a hybrid or an empty one.
func (s *Store) maybeCompactLocked(sh *shard) {
	if sh.file == nil || sh.garbage < s.compactMin || sh.garbage < sh.live {
		return
	}
	// "store.diskfull" during compaction: building the replacement file
	// needs transient space a full disk does not have. Abort — the old
	// segment is untouched, every acked record still reads — and try
	// again at the next trigger.
	if s.fault.At("store.diskfull", "compact:"+sh.path) == faultinject.KindErr {
		s.cnt.Add(telemetry.StoreDiskFullEvents, 1)
		return
	}
	// A tombstone is superseded — droppable — only once its name is live
	// again under a newer sequence (the re-created version's records then
	// outrank everything the tombstone guarded). Lock order sh.mu → nmu is
	// safe: no path acquires a shard lock while holding nmu.
	s.nmu.Lock()
	for name, tb := range sh.tombs {
		if le, ok := s.byName[name]; ok && le.seq > tb.seq {
			delete(sh.tombs, name)
		}
	}
	s.nmu.Unlock()

	tmp, err := os.CreateTemp(filepath.Dir(sh.path), "compact-*")
	if err != nil {
		return // compaction is an optimization; try again next trigger
	}
	defer os.Remove(tmp.Name())

	ids := make([]string, 0, len(sh.byID))
	for id := range sh.byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	// The rewrite holds at most the live records and guarding tombstones:
	// sh.live sizes it up front (records failing verification below only
	// leave it shorter).
	buf := append(make([]byte, 0, int64(len(segHeader))+max(sh.live, 0)), segHeader...)
	type move struct {
		m     *meta
		which *ref
		to    ref
	}
	var moves []move
	var frame []byte // each record is read into this buffer, then re-framed into buf
	for _, id := range ids {
		m := sh.byID[id]
		for _, which := range []*ref{&m.src, &m.res} {
			if !which.ok() {
				continue
			}
			var err error
			if frame, err = sh.readFrameLocked(frame, *which); err != nil {
				s.quarantineLocked(sh, which)
				continue
			}
			body := frame[which.bodyOff-which.start : which.bodyOff-which.start+which.bodyLen]
			kind := recSource
			if which == &m.res {
				kind = recResult
			}
			start := int64(len(buf))
			buf = appendRecord(buf, kind, which.seq, m.id, m.name, m.fp, body)
			total := int64(len(buf)) - start
			moves = append(moves, move{m: m, which: which, to: ref{
				start: start, total: total,
				bodyOff: start + total - 4 - int64(len(body)), bodyLen: int64(len(body)),
				seq: which.seq,
			}})
		}
	}
	for _, name := range sortedTombNames(sh.tombs) {
		tb := sh.tombs[name]
		start := int64(len(buf))
		buf = appendRecord(buf, recTombstone, tb.seq, tb.id, tb.name, tb.fp, nil)
		tb.bytes = int64(len(buf)) - start
		sh.tombs[name] = tb
	}
	_, err = tmp.Write(buf)
	if err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		if IsDiskFull(err) {
			s.cnt.Add(telemetry.StoreDiskFullEvents, 1)
		}
		return
	}
	if err := tmp.Close(); err != nil {
		return
	}
	if err := os.Rename(tmp.Name(), sh.path); err != nil {
		return
	}
	// The directory sync makes the rename itself durable. Its error is
	// dropped: both files are complete on disk, so whichever one a power
	// cut leaves under the name reads back intact.
	_ = syncDir(filepath.Dir(sh.path))
	f, err := os.OpenFile(sh.path, os.O_RDWR, 0o644)
	if err != nil {
		// The rename landed but the reopen failed: the shard is now
		// unreadable until the next Open. Keep the old handle closed.
		sh.file.Close()
		sh.file = nil
		return
	}
	sh.file.Close()
	sh.file = f
	sh.size = int64(len(buf))
	sh.garbage = 0
	sh.live = int64(len(buf)) - int64(len(segHeader))
	for _, mv := range moves {
		*mv.which = mv.to
	}
	s.cnt.Add(telemetry.StoreCompactions, 1)
}

// syncDir fsyncs a directory, making the renames in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats is a point-in-time health snapshot, for tests and debugging.
type Stats struct {
	// Entries is the live project count; MissingResults how many of them
	// have no durably readable result right now.
	Entries        int
	MissingResults int
	HotEntries     int
	HotBytes       int64
	Evictions      int64
	Quarantined    int64
	Compactions    int64
	FlushErrors    int64
	GarbageBytes   int64
	LiveBytes      int64
	// ReadOnly is the current mode; ReadOnlyEvents and DiskFullEvents
	// count transitions into it and ENOSPC incidents respectively.
	ReadOnly       bool
	ReadOnlyEvents int64
	DiskFullEvents int64
	// ScrubPasses and Repairs summarize the background scrubber.
	ScrubPasses int64
	Repairs     int64
}

// StatsSnapshot gathers Stats across all shards.
func (s *Store) StatsSnapshot() Stats {
	var st Stats
	st.HotEntries, st.HotBytes = s.hot.stats()
	st.Evictions = s.cnt.Load(telemetry.StoreEvictions)
	st.Quarantined = s.cnt.Load(telemetry.StoreQuarantined)
	st.Compactions = s.cnt.Load(telemetry.StoreCompactions)
	st.FlushErrors = s.cnt.Load(telemetry.StoreFlushErrors)
	st.ReadOnly = s.readOnly.Load()
	st.ReadOnlyEvents = s.cnt.Load(telemetry.StoreReadOnlyEvents)
	st.DiskFullEvents = s.cnt.Load(telemetry.StoreDiskFullEvents)
	st.ScrubPasses = s.cnt.Load(telemetry.StoreScrubPasses)
	st.Repairs = s.cnt.Load(telemetry.StoreRepairs)
	for _, sh := range s.shards {
		sh.mu.Lock()
		st.Entries += len(sh.byID)
		for id, m := range sh.byID {
			if sh.file != nil {
				if !m.res.ok() {
					st.MissingResults++
				}
			} else if _, ok := s.hot.get(id); !ok {
				st.MissingResults++
			}
		}
		st.GarbageBytes += sh.garbage
		st.LiveBytes += sh.live
		sh.mu.Unlock()
	}
	return st
}

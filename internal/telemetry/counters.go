package telemetry

import "sync/atomic"

// Counter names one event counter of the report. Every counter is one row
// of counterTable, which says where Snapshot reports it.
type Counter int

// The counters, grouped by the report block they feed.
const (
	CacheHits Counter = iota
	CacheMisses
	CacheWrites
	// CacheErrors counts unhealthy cache incidents: unreadable entries,
	// failed writes, and every corrupt entry.
	CacheErrors
	// CacheCorrupt counts entries that failed their integrity check. Each
	// is moved to the corrupt/ directory as it is counted, so the one
	// counter feeds both the corrupt and the quarantined report fields.
	CacheCorrupt
	CacheRetries
	// CacheReaped counts quarantined files deleted by the retention cap.
	CacheReaped
	CacheBytesRead
	CacheBytesWritten

	StoreHotHits
	// StoreHotMisses counts hot-tier misses; the lookup then goes on to
	// the disk tier, whose answer is counted too.
	StoreHotMisses
	StoreDiskHits
	// StoreDiskMisses counts lookups that missed every tier.
	StoreDiskMisses
	// StoreAppends counts records appended to a segment file.
	StoreAppends
	StoreFlushes
	// StoreFlushErrors counts failed (possibly torn) segment flushes.
	StoreFlushErrors
	StoreCompactions
	// StoreQuarantined counts records that failed their integrity check.
	StoreQuarantined
	// StoreEvictions counts hot-tier evictions.
	StoreEvictions
	// StoreReanalyses counts projects recomputed from their persisted
	// source because the stored result was evicted or quarantined.
	StoreReanalyses
	StoreScrubPasses
	// StoreScrubbedRecords counts records the scrubber CRC-verified.
	StoreScrubbedRecords
	// StoreRepairs counts quarantined entries the scrubber restored.
	StoreRepairs
	// StoreDiskFullEvents counts ENOSPC incidents (real or injected).
	StoreDiskFullEvents
	// StoreReadOnlyEvents counts transitions into read-only mode.
	StoreReadOnlyEvents
	StoreBytesRead
	StoreBytesWritten

	RenderHits
	RenderMisses
	RenderWrites
	// RenderInvalidations counts epoch bumps by overwrite, delete or
	// re-analysis commit.
	RenderInvalidations
	// RenderEvictions counts bodies evicted by the byte budget.
	RenderEvictions
	// RenderNotModified counts conditional GETs answered 304.
	RenderNotModified
	RenderBytesServed
	RenderBytesWritten

	// SpansDropped counts spans refused by the full trace buffer.
	SpansDropped

	numCounters
)

// reportField locates one int64 field of a Report.
type reportField func(*Report) *int64

// counterTable maps each counter to its name (the JSON path of its report
// field) and to the Report field(s) Snapshot copies it into.
var counterTable = [numCounters]struct {
	name   string
	fields []reportField
}{
	CacheHits:         {"cache.hits", []reportField{func(r *Report) *int64 { return &r.Cache.Hits }}},
	CacheMisses:       {"cache.misses", []reportField{func(r *Report) *int64 { return &r.Cache.Misses }}},
	CacheWrites:       {"cache.writes", []reportField{func(r *Report) *int64 { return &r.Cache.Writes }}},
	CacheErrors:       {"cache.errors", []reportField{func(r *Report) *int64 { return &r.Cache.Errors }}},
	CacheRetries:      {"cache.retries", []reportField{func(r *Report) *int64 { return &r.Cache.Retries }}},
	CacheReaped:       {"cache.reaped", []reportField{func(r *Report) *int64 { return &r.Cache.Reaped }}},
	CacheBytesRead:    {"cache.bytes_read", []reportField{func(r *Report) *int64 { return &r.Cache.BytesRead }}},
	CacheBytesWritten: {"cache.bytes_written", []reportField{func(r *Report) *int64 { return &r.Cache.BytesWritten }}},
	CacheCorrupt: {"cache.corrupt", []reportField{
		func(r *Report) *int64 { return &r.Cache.Corrupt },
		func(r *Report) *int64 { return &r.Cache.Quarantined },
	}},

	StoreHotHits:         {"store.hot_hits", []reportField{func(r *Report) *int64 { return &r.Store.HotHits }}},
	StoreHotMisses:       {"store.hot_misses", []reportField{func(r *Report) *int64 { return &r.Store.HotMisses }}},
	StoreDiskHits:        {"store.disk_hits", []reportField{func(r *Report) *int64 { return &r.Store.DiskHits }}},
	StoreDiskMisses:      {"store.disk_misses", []reportField{func(r *Report) *int64 { return &r.Store.DiskMisses }}},
	StoreAppends:         {"store.appends", []reportField{func(r *Report) *int64 { return &r.Store.Appends }}},
	StoreFlushes:         {"store.flushes", []reportField{func(r *Report) *int64 { return &r.Store.Flushes }}},
	StoreFlushErrors:     {"store.flush_errors", []reportField{func(r *Report) *int64 { return &r.Store.FlushErrors }}},
	StoreCompactions:     {"store.compactions", []reportField{func(r *Report) *int64 { return &r.Store.Compactions }}},
	StoreQuarantined:     {"store.quarantined", []reportField{func(r *Report) *int64 { return &r.Store.Quarantined }}},
	StoreEvictions:       {"store.evictions", []reportField{func(r *Report) *int64 { return &r.Store.Evictions }}},
	StoreReanalyses:      {"store.reanalyses", []reportField{func(r *Report) *int64 { return &r.Store.Reanalyses }}},
	StoreScrubPasses:     {"store.scrub_passes", []reportField{func(r *Report) *int64 { return &r.Store.ScrubPasses }}},
	StoreScrubbedRecords: {"store.scrubbed_records", []reportField{func(r *Report) *int64 { return &r.Store.ScrubbedRecords }}},
	StoreRepairs:         {"store.repairs", []reportField{func(r *Report) *int64 { return &r.Store.Repairs }}},
	StoreDiskFullEvents:  {"store.disk_full_events", []reportField{func(r *Report) *int64 { return &r.Store.DiskFullEvents }}},
	StoreReadOnlyEvents:  {"store.read_only_events", []reportField{func(r *Report) *int64 { return &r.Store.ReadOnlyEvents }}},
	StoreBytesRead:       {"store.bytes_read", []reportField{func(r *Report) *int64 { return &r.Store.BytesRead }}},
	StoreBytesWritten:    {"store.bytes_written", []reportField{func(r *Report) *int64 { return &r.Store.BytesWritten }}},

	RenderHits:          {"render.hits", []reportField{func(r *Report) *int64 { return &r.Render.Hits }}},
	RenderMisses:        {"render.misses", []reportField{func(r *Report) *int64 { return &r.Render.Misses }}},
	RenderWrites:        {"render.writes", []reportField{func(r *Report) *int64 { return &r.Render.Writes }}},
	RenderInvalidations: {"render.invalidations", []reportField{func(r *Report) *int64 { return &r.Render.Invalidations }}},
	RenderEvictions:     {"render.evictions", []reportField{func(r *Report) *int64 { return &r.Render.Evictions }}},
	RenderNotModified:   {"render.not_modified", []reportField{func(r *Report) *int64 { return &r.Render.NotModified }}},
	RenderBytesServed:   {"render.bytes_served", []reportField{func(r *Report) *int64 { return &r.Render.BytesServed }}},
	RenderBytesWritten:  {"render.bytes_written", []reportField{func(r *Report) *int64 { return &r.Render.BytesWritten }}},

	SpansDropped: {"spans_dropped", []reportField{func(r *Report) *int64 { return &r.SpansDropped }}},
}

// String returns the counter's name, its field's JSON path in the report.
func (k Counter) String() string { return counterTable[k].name }

// Counters is one block of counters, one per table row. A component that
// keeps stats of its own (a store, a pipeline run) counts into a block
// chained to its collector's, so one Add at the event site feeds both.
// The zero value is an unchained block, ready to use; a nil *Counters
// counts nothing.
type Counters struct {
	parent *Counters
	v      [numCounters]atomic.Int64
}

// NewCounters returns an empty block whose Adds also feed parent and its
// ancestors. A nil parent yields an unchained block.
func NewCounters(parent *Counters) *Counters { return &Counters{parent: parent} }

// Add adds n to counter k in this block and every block it is chained
// to. Nil-safe.
func (b *Counters) Add(k Counter, n int64) {
	for ; b != nil; b = b.parent {
		b.v[k].Add(n)
	}
}

// Load returns counter k of this block: the events counted here and in
// the blocks chained to it. Nil-safe.
func (b *Counters) Load(k Counter) int64 {
	if b == nil {
		return 0
	}
	return b.v[k].Load()
}

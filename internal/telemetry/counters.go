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
	// CacheCorrupt counts entries that failed their checksum, decode or
	// fingerprint check and were read as misses.
	CacheCorrupt
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

	numCounters
)

// counterTable maps each counter to its name (the JSON path of its report
// field) and to the Report field Snapshot copies it into.
var counterTable = [numCounters]struct {
	name  string
	field func(*Report) *int64
}{
	CacheHits:         {"cache.hits", func(r *Report) *int64 { return &r.Cache.Hits }},
	CacheMisses:       {"cache.misses", func(r *Report) *int64 { return &r.Cache.Misses }},
	CacheWrites:       {"cache.writes", func(r *Report) *int64 { return &r.Cache.Writes }},
	CacheErrors:       {"cache.errors", func(r *Report) *int64 { return &r.Cache.Errors }},
	CacheBytesRead:    {"cache.bytes_read", func(r *Report) *int64 { return &r.Cache.BytesRead }},
	CacheBytesWritten: {"cache.bytes_written", func(r *Report) *int64 { return &r.Cache.BytesWritten }},
	CacheCorrupt:      {"cache.corrupt", func(r *Report) *int64 { return &r.Cache.Corrupt }},

	StoreHotHits:         {"store.hot_hits", func(r *Report) *int64 { return &r.Store.HotHits }},
	StoreHotMisses:       {"store.hot_misses", func(r *Report) *int64 { return &r.Store.HotMisses }},
	StoreDiskHits:        {"store.disk_hits", func(r *Report) *int64 { return &r.Store.DiskHits }},
	StoreDiskMisses:      {"store.disk_misses", func(r *Report) *int64 { return &r.Store.DiskMisses }},
	StoreAppends:         {"store.appends", func(r *Report) *int64 { return &r.Store.Appends }},
	StoreFlushes:         {"store.flushes", func(r *Report) *int64 { return &r.Store.Flushes }},
	StoreFlushErrors:     {"store.flush_errors", func(r *Report) *int64 { return &r.Store.FlushErrors }},
	StoreCompactions:     {"store.compactions", func(r *Report) *int64 { return &r.Store.Compactions }},
	StoreQuarantined:     {"store.quarantined", func(r *Report) *int64 { return &r.Store.Quarantined }},
	StoreEvictions:       {"store.evictions", func(r *Report) *int64 { return &r.Store.Evictions }},
	StoreReanalyses:      {"store.reanalyses", func(r *Report) *int64 { return &r.Store.Reanalyses }},
	StoreScrubPasses:     {"store.scrub_passes", func(r *Report) *int64 { return &r.Store.ScrubPasses }},
	StoreScrubbedRecords: {"store.scrubbed_records", func(r *Report) *int64 { return &r.Store.ScrubbedRecords }},
	StoreRepairs:         {"store.repairs", func(r *Report) *int64 { return &r.Store.Repairs }},
	StoreDiskFullEvents:  {"store.disk_full_events", func(r *Report) *int64 { return &r.Store.DiskFullEvents }},
	StoreBytesRead:       {"store.bytes_read", func(r *Report) *int64 { return &r.Store.BytesRead }},
	StoreBytesWritten:    {"store.bytes_written", func(r *Report) *int64 { return &r.Store.BytesWritten }},

	RenderHits:          {"render.hits", func(r *Report) *int64 { return &r.Render.Hits }},
	RenderMisses:        {"render.misses", func(r *Report) *int64 { return &r.Render.Misses }},
	RenderWrites:        {"render.writes", func(r *Report) *int64 { return &r.Render.Writes }},
	RenderInvalidations: {"render.invalidations", func(r *Report) *int64 { return &r.Render.Invalidations }},
	RenderEvictions:     {"render.evictions", func(r *Report) *int64 { return &r.Render.Evictions }},
	RenderNotModified:   {"render.not_modified", func(r *Report) *int64 { return &r.Render.NotModified }},
	RenderBytesServed:   {"render.bytes_served", func(r *Report) *int64 { return &r.Render.BytesServed }},
	RenderBytesWritten:  {"render.bytes_written", func(r *Report) *int64 { return &r.Render.BytesWritten }},
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

package server

// renderCache is the serving read path's render-once/serve-many tier: an
// immutable pre-rendered HTTP body per project, stored in a sharded
// bytes-bounded LRU and served with a single w.Write — no store decode,
// no reflection, no per-request marshal.
//
// Staleness is handled with per-shard epochs rather than per-entry
// version tracking. The protocol is:
//
//	reader:  e := epoch(key); read store; render; put(key, e, entry)
//	mutator: mutate store (commit fully visible); invalidate(key)
//
// invalidate bumps the shard epoch and drops the entry, so a put whose
// render raced a mutation (its epoch snapshot predates the bump) is
// rejected and the next reader re-renders from the post-mutation store.
// An entry present in the cache therefore always reflects a store state
// at least as new as the last completed invalidate for its key. Sharing
// one epoch per shard instead of per key only over-invalidates (a racing
// put for an unrelated key in the same shard is rejected and retried by
// the next reader) — it never under-invalidates, and it keeps the epoch
// state O(shards) instead of O(keys ever seen).
//
// Note the bodies themselves are content-addressed — a project ID is the
// fingerprint of its source, so two renders of the same live ID can only
// differ if the analysis toolchain changed (which restarts the process).
// Invalidation exists for liveness (DELETE, supersede by overwrite), not
// because bytes under a key can silently change meaning.

import (
	"container/list"
	"strings"
	"sync"

	"schemaevo/internal/telemetry"
)

// renderShardCount is the number of independently locked cache shards.
// Power of two so the shard pick is a mask.
const renderShardCount = 16

// fnvOffset64 and fnvPrime64 are the FNV-1a 64-bit parameters, used both
// for shard selection and for ETag derivation.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv1a(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// etagFor derives the strong ETag for a rendered body: the quoted
// lowercase hex FNV-1a-64 of the exact bytes on the wire. Identical
// bodies (same result content, same API schema version) yield identical
// ETags across restarts and replicas.
func etagFor(body []byte) string {
	h := uint64(fnvOffset64)
	for _, b := range body {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	buf := make([]byte, 18)
	buf[0] = '"'
	for i := 0; i < 16; i++ {
		buf[1+i] = jsonHex[(h>>uint(60-4*i))&0xF]
	}
	buf[17] = '"'
	return string(buf)
}

// renderEntry is one cached response: the immutable rendered body, its
// strong ETag, and the summary fields the POST/batch paths need so a
// cache hit can answer without decoding the stored result.
type renderEntry struct {
	body    []byte
	etag    string
	project string
	pattern string
	// corpus marks a body rendered from the immutable corpus index rather
	// than the result store (GETs label it X-Cache: corpus, and the submit
	// fast path ignores it so first submissions still run an analysis).
	corpus bool
}

type renderShard struct {
	mu    sync.Mutex
	epoch uint64
	bytes int64
	ll    *list.List               // front = most recently used
	items map[string]*list.Element // value: *renderItem
}

type renderItem struct {
	key   string
	entry renderEntry
}

// renderCache is a sharded bytes-bounded LRU of rendered bodies. A nil
// *renderCache is a valid no-op (every method nil-checks), which is how
// Config.RenderBytes < 0 disables the tier without conditional wiring.
type renderCache struct {
	perShard int64 // byte budget per shard
	tel      *telemetry.Collector
	shards   [renderShardCount]renderShard
}

// newRenderCache builds a cache with the given total byte budget spread
// across the shards. Budgets below one page per shard are clamped so a
// tiny budget still caches something per shard rather than thrashing.
func newRenderCache(maxBytes int64, tel *telemetry.Collector) *renderCache {
	per := maxBytes / renderShardCount
	if per < 4096 {
		per = 4096
	}
	c := &renderCache{perShard: per, tel: tel}
	for i := range c.shards {
		c.shards[i].ll = list.New()
		c.shards[i].items = map[string]*list.Element{}
	}
	return c
}

func (c *renderCache) shard(key string) *renderShard {
	return &c.shards[fnv1a(key)&(renderShardCount-1)]
}

// get returns the cached entry for key, if live. The returned entry's
// body must be treated as immutable.
func (c *renderCache) get(key string) (renderEntry, bool) {
	if c == nil {
		return renderEntry{}, false
	}
	s := c.shard(key)
	s.mu.Lock()
	el, ok := s.items[key]
	if !ok {
		s.mu.Unlock()
		c.tel.Add(telemetry.RenderMisses, 1)
		return renderEntry{}, false
	}
	s.ll.MoveToFront(el)
	e := el.Value.(*renderItem).entry
	s.mu.Unlock()
	c.tel.Add(telemetry.RenderHits, 1)
	c.tel.Add(telemetry.RenderBytesServed, int64(len(e.body)))
	return e, true
}

// epochOf snapshots the epoch governing key. Call BEFORE reading the
// store state the render will be computed from; pass the snapshot to put.
func (c *renderCache) epochOf(key string) uint64 {
	if c == nil {
		return 0
	}
	s := c.shard(key)
	s.mu.Lock()
	e := s.epoch
	s.mu.Unlock()
	return e
}

// put inserts a rendered entry if no invalidation intervened since the
// epoch snapshot was taken. Returns false (and caches nothing) when the
// epoch moved — the render may predate a store mutation, so serving it
// from cache later could resurrect stale bytes. The rejected render is
// still safe to WRITE to the requester that produced it: it reflected a
// real store state at its snapshot.
func (c *renderCache) put(key string, epoch uint64, e renderEntry) bool {
	if c == nil {
		return false
	}
	s := c.shard(key)
	s.mu.Lock()
	if s.epoch != epoch {
		s.mu.Unlock()
		return false
	}
	if el, ok := s.items[key]; ok {
		// Same key re-rendered under an unchanged epoch: identical bytes
		// (renders are pure functions of store state). Keep the original.
		s.ll.MoveToFront(el)
		s.mu.Unlock()
		return true
	}
	s.items[key] = s.ll.PushFront(&renderItem{key: key, entry: e})
	s.bytes += int64(len(e.body))
	evicted := 0
	for s.bytes > c.perShard && s.ll.Len() > 1 {
		back := s.ll.Back()
		it := back.Value.(*renderItem)
		s.ll.Remove(back)
		delete(s.items, it.key)
		s.bytes -= int64(len(it.entry.body))
		evicted++
	}
	s.mu.Unlock()
	c.tel.Add(telemetry.RenderWrites, 1)
	c.tel.Add(telemetry.RenderBytesWritten, int64(len(e.body)))
	c.tel.Add(telemetry.RenderEvictions, int64(evicted))
	return true
}

// invalidate drops key and bumps its shard epoch. Call AFTER the store
// mutation is fully visible, so any concurrent render that read the
// pre-mutation store holds a stale epoch snapshot and its put is
// rejected.
func (c *renderCache) invalidate(key string) {
	if c == nil {
		return
	}
	s := c.shard(key)
	s.mu.Lock()
	s.epoch++
	if el, ok := s.items[key]; ok {
		it := el.Value.(*renderItem)
		s.ll.Remove(el)
		delete(s.items, it.key)
		s.bytes -= int64(len(it.entry.body))
	}
	s.mu.Unlock()
	c.tel.Add(telemetry.RenderInvalidations, 1)
}

// bytes reports the total cached body bytes across shards (for tests and
// the /metrics gauge).
func (c *renderCache) bytesCached() int64 {
	if c == nil {
		return 0
	}
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.bytes
		s.mu.Unlock()
	}
	return n
}

// ifNoneMatchSatisfied reports whether an If-None-Match header value
// matches the resource's current ETag under RFC 9110 §13.1.2: weak
// comparison (a W/ prefix on either side is ignored), "*" matches any
// current representation, and the header may list several
// comma-separated candidates.
func ifNoneMatchSatisfied(header, etag string) bool {
	if header == "" || etag == "" {
		return false
	}
	target := strings.TrimPrefix(etag, "W/")
	for len(header) > 0 {
		header = strings.TrimLeft(header, " \t,")
		if header == "" {
			break
		}
		if header[0] == '*' {
			return true
		}
		var cand string
		if i := strings.Index(header, ","); i >= 0 {
			cand, header = header[:i], header[i+1:]
		} else {
			cand, header = header, ""
		}
		cand = strings.TrimRight(cand, " \t")
		if strings.TrimPrefix(cand, "W/") == target {
			return true
		}
	}
	return false
}

// renderGauges exports point-in-time cache occupancy into the collector
// ahead of a snapshot.
func (c *renderCache) renderGauges() {
	if c == nil {
		return
	}
	c.tel.SetGauge("render_cache_bytes", c.bytesCached())
}

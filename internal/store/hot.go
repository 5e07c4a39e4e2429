package store

import (
	"container/list"
	"sync"

	"schemaevo/internal/telemetry"
)

// hotTier is the in-memory tier: encoded results keyed by project ID,
// bounded both by entry count and by total byte size, evicting from the
// least-recently-used end. An entry is charged its capacity, not its
// length: the tier keeps the whole backing array reachable. Eviction is harmless by construction — every
// entry is either persisted in the disk tier or recomputable from its
// retained source snapshot — so the hot tier is a pure accelerator, never
// the owner of last resort.
type hotTier struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	order      *list.List // front = most recently used; values are *hotEntry
	byID       map[string]*list.Element
	cnt        *telemetry.Counters // counts evictions
}

type hotEntry struct {
	id   string
	data []byte
}

func newHotTier(maxEntries int, maxBytes int64, cnt *telemetry.Counters) *hotTier {
	if maxEntries < 1 {
		maxEntries = 1024
	}
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	return &hotTier{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		order:      list.New(),
		byID:       map[string]*list.Element{},
		cnt:        cnt,
	}
}

func (h *hotTier) get(id string) ([]byte, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	el, ok := h.byID[id]
	if !ok {
		return nil, false
	}
	h.order.MoveToFront(el)
	return el.Value.(*hotEntry).data, true
}

// has reports whether id is in the tier without touching its recency,
// so a health probe leaves the eviction order as the reads made it.
func (h *hotTier) has(id string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	_, ok := h.byID[id]
	return ok
}

func (h *hotTier) put(id string, data []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if el, ok := h.byID[id]; ok {
		e := el.Value.(*hotEntry)
		h.bytes += int64(cap(data)) - int64(cap(e.data))
		e.data = data
		h.order.MoveToFront(el)
	} else {
		h.byID[id] = h.order.PushFront(&hotEntry{id: id, data: data})
		h.bytes += int64(cap(data))
	}
	for h.order.Len() > 1 && (h.order.Len() > h.maxEntries || h.bytes > h.maxBytes) {
		cold := h.order.Back()
		e := cold.Value.(*hotEntry)
		h.order.Remove(cold)
		delete(h.byID, e.id)
		h.bytes -= int64(cap(e.data))
		h.cnt.Add(telemetry.StoreEvictions, 1)
	}
}

func (h *hotTier) remove(id string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if el, ok := h.byID[id]; ok {
		h.bytes -= int64(cap(el.Value.(*hotEntry).data))
		h.order.Remove(el)
		delete(h.byID, id)
	}
}

func (h *hotTier) stats() (entries int, bytes int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.order.Len(), h.bytes
}

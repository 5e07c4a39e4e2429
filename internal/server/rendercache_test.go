package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"

	"schemaevo/internal/synth"
)

// TestRenderCacheEpochProtocol pins the race-closing insert protocol: a
// put carrying an epoch older than the key's current one must be
// rejected, so a reader that raced a mutation can never resurrect the
// pre-mutation body.
func TestRenderCacheEpochProtocol(t *testing.T) {
	c := newRenderCache(1<<20, nil)
	entry := func(body string) renderEntry {
		b := []byte(body)
		return renderEntry{body: b, etag: etagFor(b)}
	}

	epoch := c.epochOf("k")
	if !c.put("k", epoch, entry("v1")) {
		t.Fatal("put with a fresh epoch was rejected")
	}
	if e, ok := c.get("k"); !ok || string(e.body) != "v1" {
		t.Fatalf("get after put: ok=%v body=%q", ok, e.body)
	}

	// Invalidation drops the entry and moves the epoch.
	c.invalidate("k")
	if _, ok := c.get("k"); ok {
		t.Fatal("get after invalidate still hit")
	}
	if c.put("k", epoch, entry("stale")) {
		t.Fatal("put with a pre-invalidation epoch was accepted")
	}
	if _, ok := c.get("k"); ok {
		t.Fatal("stale put populated the cache")
	}

	// The post-invalidation epoch admits a fresh render.
	epoch2 := c.epochOf("k")
	if epoch2 == epoch {
		t.Fatal("invalidate did not move the epoch")
	}
	if !c.put("k", epoch2, entry("v2")) {
		t.Fatal("put with the current epoch was rejected")
	}

	// A duplicate put under an unchanged epoch keeps the original bytes
	// (both renders are byte-identical by construction; keeping the first
	// avoids churning the accounting).
	first, _ := c.get("k")
	c.put("k", epoch2, entry("v2"))
	second, _ := c.get("k")
	if &first.body[0] != &second.body[0] {
		t.Fatal("duplicate put under one epoch replaced the entry")
	}
}

// TestRenderCacheEviction bounds the cache by bytes: inserting far more
// than the budget must evict LRU entries, never exceed the budget, and
// keep the most recently used entry resident.
func TestRenderCacheEviction(t *testing.T) {
	c := newRenderCache(1, nil) // clamps to the 4 KiB per-shard floor
	body := make([]byte, 1024)
	var last string
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%03d", i)
		c.put(key, c.epochOf(key), renderEntry{body: body, etag: etagFor(body)})
		last = key
	}
	budget := int64(renderShardCount * 4096)
	if got := c.bytesCached(); got > budget {
		t.Fatalf("bytesCached %d exceeds the %d budget", got, budget)
	}
	if _, ok := c.get(last); !ok {
		t.Fatal("most recently inserted entry was evicted")
	}
	misses := 0
	for i := 0; i < 200; i++ {
		if _, ok := c.get(fmt.Sprintf("key-%03d", i)); !ok {
			misses++
		}
	}
	if misses == 0 {
		t.Fatal("no entry was evicted despite 200 KiB over a 64 KiB budget")
	}
}

// TestETagFormat pins the strong-validator shape: a quoted 16-digit
// lowercase hex string, stable for equal bodies, different for
// different bodies.
func TestETagFormat(t *testing.T) {
	re := regexp.MustCompile(`^"[0-9a-f]{16}"$`)
	a, b := etagFor([]byte("alpha")), etagFor([]byte("beta"))
	if !re.MatchString(a) || !re.MatchString(b) {
		t.Fatalf("malformed etags %s / %s", a, b)
	}
	if a == b {
		t.Fatal("distinct bodies produced equal etags")
	}
	if a != etagFor([]byte("alpha")) {
		t.Fatal("equal bodies produced distinct etags")
	}
}

// TestIfNoneMatchSatisfied pins RFC 9110 §13.1.2 weak comparison over
// the header shapes clients actually send.
func TestIfNoneMatchSatisfied(t *testing.T) {
	const etag = `"0123456789abcdef"`
	cases := []struct {
		header string
		want   bool
	}{
		{"", false},
		{etag, true},
		{`W/` + etag, true},
		{`"other"`, false},
		{`"other", ` + etag, true},
		{`"a" , W/` + etag + ` ,"b"`, true},
		{"*", true},
		{`"0123456789abcdef`, false}, // unterminated, not an exact match
		{"0123456789abcdef", false},  // unquoted is a different opaque tag
	}
	for _, c := range cases {
		if got := ifNoneMatchSatisfied(c.header, etag); got != c.want {
			t.Errorf("ifNoneMatchSatisfied(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}

// discardWriter is the cheapest possible ResponseWriter: a reusable
// header map and a byte-counting sink, so AllocsPerRun measures the
// serving path rather than the recorder.
type discardWriter struct {
	h http.Header
	n int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

func newAllocServer(t *testing.T) *Server {
	t.Helper()
	c, err := synth.RandomCorpus(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(context.Background(), Config{Corpus: c})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestCachedReadAllocs enforces the acceptance budget: a cached project
// GET performs at most 10 allocations (header sets and the
// Content-Length itoa), and a 304 strictly fewer.
func TestCachedReadAllocs(t *testing.T) {
	s := newAllocServer(t)
	id := corpusMembers(s)[0].id

	req := httptest.NewRequest(http.MethodGet, "/v1/projects/"+id, nil)
	req.SetPathValue("id", id)
	w := &discardWriter{h: make(http.Header, 8)}
	s.handleProject(w, req) // warm the render cache
	if _, ok := s.render.get(id); !ok {
		t.Fatal("warm-up GET did not populate the render cache")
	}

	measure := func(r *http.Request) float64 {
		return testing.AllocsPerRun(200, func() {
			for k := range w.h {
				delete(w.h, k)
			}
			s.handleProject(w, r)
		})
	}
	if got := measure(req); got > 10 {
		t.Errorf("cached GET allocates %.1f per request, budget is 10", got)
	}

	etag, _ := s.render.get(id)
	cond := httptest.NewRequest(http.MethodGet, "/v1/projects/"+id, nil)
	cond.SetPathValue("id", id)
	cond.Header.Set("If-None-Match", etag.etag)
	if got := measure(cond); got > 10 {
		t.Errorf("conditional GET allocates %.1f per request, budget is 10", got)
	}
}

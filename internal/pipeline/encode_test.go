package pipeline

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"schemaevo/internal/synth"
	"schemaevo/internal/vcs"
)

// paperEncodings analyzes PaperCorpus(1) once per test binary and returns
// every analyzed project's result and every project's source snapshot, in
// corpus order. Callers must not mutate what it returns.
var paperEncodings = sync.OnceValues(func() ([]*CachedResult, []*vcs.Repo) {
	c, err := synth.PaperCorpus(1)
	if err != nil {
		panic(err)
	}
	if _, err := Run(context.Background(), c, Options{}); err != nil {
		panic(err)
	}
	var rs []*CachedResult
	var repos []*vcs.Repo
	for _, p := range c.Projects {
		repos = append(repos, p.Repo)
		if p.Analyzed && p.History != nil {
			rs = append(rs, &CachedResult{Fingerprint: Fingerprint(p.Repo), Project: p.Name, History: p.History, Measures: p.Measures})
		}
	}
	return rs, repos
})

// digestOf hashes a sequence of byte strings, each behind its length, so
// moving bytes from one string into the next changes the digest.
func digestOf(parts [][]byte) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEncodingsPinned pins the persisted bytes of the whole paper corpus:
// every analyzed project's EncodeResult, every project's EncodeRepo, and
// the cache files a cold run writes. The digests were recorded before the encoders moved to pooled scratch
// and exact-size output; a change to either byte stream orphans every
// cache entry and stored record already on disk, so it must come with a
// format-version bump (and new digests here). The result and cache
// digests were last re-recorded for format version 6, whose bytes differ
// from version 5's only in the header's version field.
func TestEncodingsPinned(t *testing.T) {
	const (
		wantResults = "328dee59b81e0497355ffb9ca7bf075370c42f705af0a545ae2f28ed558018c8"
		wantRepos   = "fb521a2839e8fa2b519da1fe491dc2144c7680a6f9d6dad788d44045808d1fb2"
		wantCache   = "3556c981410b0f5e87f29efd28d18d9e8c824aa12a022ee45ac5f6f85120e34f"
	)
	rs, repos := paperEncodings()
	if len(rs) != 151 || len(repos) != 151 {
		t.Fatalf("paper corpus: %d results, %d repos; want 151 of each", len(rs), len(repos))
	}
	var results, sources [][]byte
	for _, r := range rs {
		results = append(results, EncodeResult(r))
	}
	for _, r := range repos {
		sources = append(sources, EncodeRepo(r))
	}
	if got := digestOf(results); got != wantResults {
		t.Errorf("EncodeResult digest over the paper corpus = %s, want %s", got, wantResults)
	}
	if got := digestOf(sources); got != wantRepos {
		t.Errorf("EncodeRepo digest over the paper corpus = %s, want %s", got, wantRepos)
	}

	// The disk cache seals its entries in the encoder's scratch; the files
	// a cold run leaves behind are pinned too, in file-name order.
	dir := t.TempDir()
	if _, err := Run(context.Background(), paperCorpus(t, 1), Options{CacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.sevc"))
	if err != nil || len(names) != 151 {
		t.Fatalf("cold run left %d cache entries (%v); want 151", len(names), err)
	}
	sort.Strings(names)
	var files [][]byte
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, data)
	}
	if got := digestOf(files); got != wantCache {
		t.Errorf("cache entry digest over the paper corpus = %s, want %s", got, wantCache)
	}
}

// TestEncodeScratchSafety pins the pooled encoder scratch: encodes from
// 8 goroutines at once equal sequential ones byte for byte, and every
// result owns its bytes — exact size (the hot tier keeps it and budgets
// its capacity), sharing no backing array with any other result, so
// comparing two encodings (as the incremental-analysis differential does)
// can never compare a buffer with itself.
func TestEncodeScratchSafety(t *testing.T) {
	rs, repos := paperEncodings()
	want := make([][]byte, len(rs))
	for i, r := range rs {
		want[i] = EncodeResult(r)
		if cap(want[i]) != len(want[i]) {
			t.Fatalf("%s: EncodeResult cap %d, len %d; want equal", r.Project, cap(want[i]), len(want[i]))
		}
		if i > 0 && overlaps(want[i-1], want[i]) {
			t.Fatalf("%s: back-to-back EncodeResult calls share a backing array", r.Project)
		}
		again := EncodeResult(r)
		if overlaps(want[i], again) || !bytes.Equal(want[i], again) {
			t.Fatalf("%s: re-encoding shares the first result's array or differs from it", r.Project)
		}
	}
	for _, r := range repos {
		if b := EncodeRepo(r); cap(b) != len(b) {
			t.Fatalf("%s: EncodeRepo cap %d, len %d; want equal", r.Name, cap(b), len(b))
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range rs {
				i := (k + w*len(rs)/workers) % len(rs) // each worker starts elsewhere
				if got := EncodeResult(rs[i]); !bytes.Equal(got, want[i]) {
					t.Errorf("worker %d: %s encodes differently under concurrency", w, rs[i].Project)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// overlaps reports whether two non-empty slices share any byte of backing
// array.
func overlaps(a, b []byte) bool {
	a0, b0 := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return a0 < b0+uintptr(cap(b)) && b0 < a0+uintptr(cap(a))
}

// TestAllocBudgetEncodeResult pins that encoding a result allocates only
// the exact-size copy it returns, whatever the history's size: the
// encoder's working state is pooled scratch.
func TestAllocBudgetEncodeResult(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops objects at random")
	}
	small, large := coldResult(t, fingerprintRepo(4)), coldResult(t, fingerprintRepo(200))
	if len(large.History.Versions) < 40*len(small.History.Versions) {
		t.Fatalf("histories of %d and %d versions; the test needs sizes far apart", len(small.History.Versions), len(large.History.Versions))
	}
	a4 := testing.AllocsPerRun(50, func() { encodeSink = EncodeResult(small) })
	a200 := testing.AllocsPerRun(50, func() { encodeSink = EncodeResult(large) })
	if a4 != a200 || a200 > 1 {
		t.Errorf("EncodeResult: %.0f allocs/op for 200 commits, %.0f for 4; want equal and <= 1", a200, a4)
	}
}

// TestAllocBudgetEncodeRepo pins that a snapshot is built in one
// exact-size buffer (plus the reused path list), whatever its size.
func TestAllocBudgetEncodeRepo(t *testing.T) {
	small, large := fingerprintRepo(4), fingerprintRepo(200)
	a4 := testing.AllocsPerRun(50, func() { encodeSink = EncodeRepo(small) })
	a200 := testing.AllocsPerRun(50, func() { encodeSink = EncodeRepo(large) })
	if a4 != a200 || a200 > 2 {
		t.Errorf("EncodeRepo: %.0f allocs/op for 200 commits, %.0f for 4; want equal and <= 2", a200, a4)
	}
}

// BenchmarkEncodeResult encodes every analyzed project of the paper
// corpus once per iteration: the store's and the disk cache's write path.
func BenchmarkEncodeResult(b *testing.B) {
	rs, _ := paperEncodings()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rs {
			encodeSink = EncodeResult(r)
		}
	}
}

// BenchmarkEncodeRepo encodes every project's source snapshot of the
// paper corpus once per iteration.
func BenchmarkEncodeRepo(b *testing.B) {
	_, repos := paperEncodings()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range repos {
			encodeSink = EncodeRepo(r)
		}
	}
}

var encodeSink []byte

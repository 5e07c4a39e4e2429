package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"schemaevo/internal/telemetry"
)

// entry fabricates a deterministic test entry; source and result bytes
// are arbitrary payloads from the store's point of view.
func entry(i, version int) Entry {
	id := fmt.Sprintf("proj-%04d", i)
	return Entry{
		ID:          fmt.Sprintf("%s-v%d", id, version),
		Name:        id,
		Fingerprint: fmt.Sprintf("fp-%s-v%d", id, version),
		Source:      []byte(fmt.Sprintf("source of %s version %d", id, version)),
		Result:      []byte(fmt.Sprintf("result of %s version %d", id, version)),
	}
}

func mustPut(t *testing.T, s *Store, e Entry) string {
	t.Helper()
	prev, err := s.Put(e)
	if err != nil {
		t.Fatalf("Put(%s): %v", e.ID, err)
	}
	return prev
}

func wantGet(t *testing.T, s *Store, id, tier string, want []byte) {
	t.Helper()
	data, gotTier, ok := s.Get(id)
	if !ok {
		t.Fatalf("Get(%s): miss, want hit from %s", id, tier)
	}
	if gotTier != tier {
		t.Fatalf("Get(%s): served from %s, want %s", id, gotTier, tier)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("Get(%s): wrong bytes", id)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	for _, mode := range []string{"memory", "disk"} {
		t.Run(mode, func(t *testing.T) {
			cfg := Config{Shards: 4}
			if mode == "disk" {
				cfg.Dir = t.TempDir()
			}
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			for i := 0; i < 20; i++ {
				mustPut(t, s, entry(i, 1))
			}
			if got := s.Len(); got != 20 {
				t.Fatalf("Len = %d, want 20", got)
			}
			for i := 0; i < 20; i++ {
				e := entry(i, 1)
				wantGet(t, s, e.ID, "hot", e.Result)
				src, ok := s.Source(e.ID)
				if !ok || !bytes.Equal(src, e.Source) {
					t.Fatalf("Source(%s): ok=%v, wrong bytes", e.ID, ok)
				}
				id, ok := s.LatestID(e.Name)
				if !ok || id != e.ID {
					t.Fatalf("LatestID(%s) = %q, %v", e.Name, id, ok)
				}
			}
			if _, _, ok := s.Get("no-such-id"); ok {
				t.Fatal("Get of unknown id reported a hit")
			}
		})
	}
}

func TestOverwriteSupersedes(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	v1, v2 := entry(0, 1), entry(0, 2)
	if prev := mustPut(t, s, v1); prev != "" {
		t.Fatalf("first Put returned prev %q", prev)
	}
	if prev := mustPut(t, s, v2); prev != v1.ID {
		t.Fatalf("overwrite returned prev %q, want %q", prev, v1.ID)
	}
	if id, _ := s.LatestID(v1.Name); id != v2.ID {
		t.Fatalf("LatestID = %q, want %q", id, v2.ID)
	}
	if _, _, ok := s.Get(v1.ID); ok {
		t.Fatal("superseded entry still served")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	// Re-putting identical content must not report itself as superseded.
	if prev := mustPut(t, s, v2); prev != "" {
		t.Fatalf("idempotent re-put returned prev %q", prev)
	}
}

func TestDeleteAndTombstoneSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		mustPut(t, s, entry(i, 1))
	}
	victim := entry(2, 1)
	if ok, err := s.Delete(victim.ID); !ok || err != nil {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if ok, _ := s.Delete(victim.ID); ok {
		t.Fatal("second Delete of same id reported true")
	}
	if s.Len() != 5 {
		t.Fatalf("Len after delete = %d, want 5", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the tombstone must keep the victim dead; everyone else lives.
	s2, err := Open(Config{Dir: dir, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 5 {
		t.Fatalf("Len after reopen = %d, want 5", s2.Len())
	}
	if _, ok := s2.LatestID(victim.Name); ok {
		t.Fatal("deleted project resurrected after reopen")
	}
	for _, i := range []int{0, 1, 3, 4, 5} {
		e := entry(i, 1)
		wantGet(t, s2, e.ID, "disk", e.Result)
	}
}

func TestReopenResolvesNewestVersion(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 3; v++ {
		mustPut(t, s, entry(7, v))
	}
	s.Close()

	s2, err := Open(Config{Dir: dir, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	want := entry(7, 3)
	id, ok := s2.LatestID(want.Name)
	if !ok || id != want.ID {
		t.Fatalf("LatestID = %q, %v; want %q", id, ok, want.ID)
	}
	wantGet(t, s2, want.ID, "disk", want.Result)
	if _, _, ok := s2.Get(entry(7, 1).ID); ok {
		t.Fatal("stale version still live after reopen")
	}
}

func TestReopenIgnoresDifferingShardConfig(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mustPut(t, s, entry(i, 1))
	}
	s.Close()

	// A config asking for a different shard count must not re-map IDs away
	// from the files that hold their records.
	s2, err := Open(Config{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(s2.shards) != 5 {
		t.Fatalf("reopen used %d shards, want persisted 5", len(s2.shards))
	}
	for i := 0; i < 10; i++ {
		e := entry(i, 1)
		wantGet(t, s2, e.ID, "disk", e.Result)
	}
}

func TestHotEvictionFallsThroughToDisk(t *testing.T) {
	tel := telemetry.New()
	s, err := Open(Config{Dir: t.TempDir(), Shards: 2, HotEntries: 1, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	a, b := entry(0, 1), entry(1, 1)
	mustPut(t, s, a)
	mustPut(t, s, b) // evicts a from the 1-entry hot tier
	wantGet(t, s, a.ID, "disk", a.Result)
	wantGet(t, s, a.ID, "hot", a.Result) // promoted back
	st := s.StatsSnapshot()
	if st.Evictions == 0 {
		t.Fatal("expected hot-tier evictions")
	}
	rep := tel.Snapshot()
	if rep.Store.DiskHits == 0 || rep.Store.Evictions == 0 {
		t.Fatalf("telemetry: disk_hits=%d evictions=%d, want both > 0",
			rep.Store.DiskHits, rep.Store.Evictions)
	}
}

// TestStoresShareCollector runs two stores against one collector: each
// store's Stats count only its own events, and the collector's report
// counts every event once.
func TestStoresShareCollector(t *testing.T) {
	tel := telemetry.New()
	var stores [2]*Store
	for i := range stores {
		s, err := Open(Config{Dir: t.TempDir(), Shards: 1, HotEntries: 1, CompactMinBytes: 1, Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		stores[i] = s
	}
	for v := 1; v <= 10; v++ {
		mustPut(t, stores[0], entry(0, v))
	}
	for v := 1; v <= 30; v++ {
		mustPut(t, stores[1], entry(v, 1))
	}
	a, b := stores[0].StatsSnapshot(), stores[1].StatsSnapshot()
	if a.Compactions == 0 || b.Evictions == 0 || a.Compactions == b.Compactions || a.Evictions == b.Evictions {
		t.Fatalf("fixture: compactions %d/%d, evictions %d/%d, want both stores active and different",
			a.Compactions, b.Compactions, a.Evictions, b.Evictions)
	}
	rep := tel.Snapshot().Store
	if rep.Compactions != a.Compactions+b.Compactions || rep.Evictions != a.Evictions+b.Evictions {
		t.Fatalf("collector compactions/evictions = %d/%d, want the sums %d/%d",
			rep.Compactions, rep.Evictions, a.Compactions+b.Compactions, a.Evictions+b.Evictions)
	}
}

func TestMemoryModeResultEvictionLeavesSource(t *testing.T) {
	s, err := Open(Config{Shards: 2, HotEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	a, b := entry(0, 1), entry(1, 1)
	mustPut(t, s, a)
	mustPut(t, s, b)
	// With no disk tier the evicted result is gone…
	if _, _, ok := s.Get(a.ID); ok {
		t.Fatal("memory mode served an evicted result")
	}
	// …but the source survives, so the entry is recomputable.
	src, ok := s.Source(a.ID)
	if !ok || !bytes.Equal(src, a.Source) {
		t.Fatal("memory mode lost the source snapshot")
	}
	if err := s.PutResult(a.ID, a.Result); err != nil {
		t.Fatal(err)
	}
	wantGet(t, s, a.ID, "hot", a.Result)
}

func TestPutResultPersists(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	e := entry(3, 1)
	e.Result = nil // source-only submission: result attached later
	mustPut(t, s, e)
	if _, _, ok := s.Get(e.ID); ok {
		t.Fatal("result served before PutResult")
	}
	if st := s.StatsSnapshot(); st.MissingResults != 1 {
		t.Fatalf("MissingResults = %d, want 1", st.MissingResults)
	}
	res := []byte("late result")
	if err := s.PutResult(e.ID, res); err != nil {
		t.Fatal(err)
	}
	if err := s.PutResult("ghost", res); err == nil {
		t.Fatal("PutResult for unknown id succeeded")
	}
	s.Close()

	s2, err := Open(Config{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	wantGet(t, s2, e.ID, "disk", res)
}

func TestEachIteratesNameOrder(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, i := range []int{5, 1, 3} {
		mustPut(t, s, entry(i, 1))
	}
	var names []string
	s.Each(func(id, name string, result []byte) {
		names = append(names, name)
		if result == nil {
			t.Fatalf("Each(%s): nil result", name)
		}
	})
	want := []string{"proj-0001", "proj-0003", "proj-0005"}
	if len(names) != len(want) {
		t.Fatalf("Each visited %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Each visited %v, want %v", names, want)
		}
	}
}

func TestCompactionReclaimsGarbage(t *testing.T) {
	dir := t.TempDir()
	// A tiny compaction floor so churn triggers it quickly.
	s, err := Open(Config{Dir: dir, Shards: 1, CompactMinBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 50; v++ {
		mustPut(t, s, entry(0, v))
	}
	st := s.StatsSnapshot()
	if st.Compactions == 0 {
		t.Fatal("expected compactions under churn")
	}
	want := entry(0, 50)
	wantGet(t, s, want.ID, "hot", want.Result)

	// The segment must have shrunk to roughly the live set.
	fi, err := os.Stat(filepath.Join(dir, "shard-000.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > 4*recordSize(want.ID, want.Name, want.Fingerprint, len(want.Result)) {
		t.Fatalf("segment still %d bytes after compaction", fi.Size())
	}
	s.Close()

	// Compacted state must survive reopen.
	s2, err := Open(Config{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	wantGet(t, s2, want.ID, "disk", want.Result)
	src, ok := s2.Source(want.ID)
	if !ok || !bytes.Equal(src, want.Source) {
		t.Fatal("source lost across compaction + reopen")
	}
}

// TestCompactionPreservesSequenceNumbers pins that compaction re-frames
// surviving records at their ORIGINAL sequence numbers. Re-stamping with
// fresh sequences could outrank a concurrent Put's records in another
// shard (supersede is not atomic across shards), letting a crash elect a
// stale version at recovery.
func TestCompactionPreservesSequenceNumbers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Shards: 1, CompactMinBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	const versions = 10
	for v := 1; v <= versions; v++ {
		mustPut(t, s, entry(0, v))
	}
	if s.StatsSnapshot().Compactions == 0 {
		t.Fatal("no compaction under churn")
	}
	s.Close()

	// Put v allocates sequences (2v-1, 2v) for its source and result; the
	// compacted segment must hold the final version's records at exactly
	// those values, not re-stamped ones.
	data, err := os.ReadFile(filepath.Join(dir, "shard-000.seg"))
	if err != nil {
		t.Fatal(err)
	}
	recs, bad := scanRecords(data[len(segHeader):], int64(len(segHeader)))
	if bad != 0 {
		t.Fatalf("%d damaged records in compacted segment", bad)
	}
	want := entry(0, versions)
	wantSeq := map[byte]uint64{recSource: 2*versions - 1, recResult: 2 * versions}
	for _, r := range recs {
		if r.id != want.ID {
			continue
		}
		if r.seq != wantSeq[r.kind] {
			t.Fatalf("kind-%d record seq = %d after compaction, want original %d", r.kind, r.seq, wantSeq[r.kind])
		}
		delete(wantSeq, r.kind)
	}
	if len(wantSeq) != 0 {
		t.Fatalf("live records missing from compacted segment: %v", wantSeq)
	}
}

// TestOpenRejectsInvalidStoreMeta pins that a present-but-unreadable
// store.json fails Open loudly: silently falling back to the configured
// shard count could leave whole shard files unscanned, their records
// invisible with no error.
func TestOpenRejectsInvalidStoreMeta(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, entry(0, 1))
	s.Close()

	metaPath := filepath.Join(dir, "store.json")
	for _, bad := range []string{"{not json", `{"version":2,"shards":0}`, `{"version":2,"shards":-2}`} {
		if err := os.WriteFile(metaPath, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(Config{Dir: dir, Shards: 3}); err == nil {
			t.Fatalf("Open succeeded with store.json %q", bad)
		}
	}

	// A repaired sidecar restores service over the untouched segments.
	if err := os.WriteFile(metaPath, []byte(`{"version":2,"shards":3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{Dir: dir, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	e := entry(0, 1)
	wantGet(t, s2, e.ID, "disk", e.Result)
}

// TestOpenRejectsOtherStoreVersion pins that a directory written under
// another store format version fails Open with both versions named, and
// is left as it was: opening it anyway would fail one entry at a time,
// as each stored snapshot met a decoder of another format.
func TestOpenRejectsOtherStoreVersion(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, entry(0, 1))
	s.Close()

	metaPath := filepath.Join(dir, "store.json")
	written, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf(`{"version":%d,"shards":3}`+"\n", storeMetaVersion); string(written) != want {
		t.Fatalf("store.json = %q, want %q", written, want)
	}
	for _, v := range []int{1, storeMetaVersion + 1} {
		old := fmt.Sprintf(`{"version":%d,"shards":3}`, v)
		if err := os.WriteFile(metaPath, []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(Config{Dir: dir, Shards: 3})
		if err == nil {
			t.Fatalf("Open succeeded with store.json %s", old)
		}
		for _, n := range []int{v, storeMetaVersion} {
			if !strings.Contains(err.Error(), fmt.Sprintf("version %d", n)) {
				t.Errorf("Open error %q does not name version %d", err, n)
			}
		}
		if got, _ := os.ReadFile(metaPath); string(got) != old {
			t.Fatalf("refused Open rewrote store.json to %q", got)
		}
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), Shards: 4, HotEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := 1; v <= 20; v++ {
				e := entry(w, v)
				if _, err := s.Put(e); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if _, _, ok := s.Get(e.ID); !ok {
					t.Errorf("Get(%s) missed its own Put", e.ID)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 8 {
		t.Fatalf("Len = %d, want 8", s.Len())
	}
	for w := 0; w < 8; w++ {
		e := entry(w, 20)
		if id, _ := s.LatestID(e.Name); id != e.ID {
			t.Fatalf("LatestID(%s) = %q, want %q", e.Name, id, e.ID)
		}
	}
}

package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"schemaevo/internal/faultinject"
)

// The crash suite drives the store's durability story end to end: torn
// flushes (a crash mid-write), truncated segments, and silent bit-rot.
// The invariant under every failure mode is the same — recovery
// quarantines exactly the damaged records, never serves wrong bytes, and
// every undamaged entry keeps working.

func TestTornFlushRecovery(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New(faultinject.Config{
		Seed:  1,
		Rate:  0.4,
		Kinds: []faultinject.Kind{faultinject.KindErr},
		Sites: []string{"store.flush"},
	})
	s, err := Open(Config{Dir: dir, Shards: 3, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}

	torn := map[string]bool{}
	for i := 0; i < 30; i++ {
		e := entry(i, 1)
		if _, err := s.Put(e); err != nil {
			torn[e.ID] = true
			// A torn flush is a refused write: no tier serves it, so the
			// process never answers with what a restart could lose.
			if _, _, ok := s.Get(e.ID); ok {
				t.Fatalf("torn entry %s served by Get", e.ID)
			}
			if _, ok := s.Source(e.ID); ok {
				t.Fatalf("torn entry %s served by Source", e.ID)
			}
		}
	}
	if len(torn) == 0 || len(torn) == 30 {
		t.Fatalf("fault plan tore %d/30 writes; the test needs both torn and clean entries", len(torn))
	}
	s.Close()

	// "Crash": reopen the directory with no injector. Clean entries must
	// be byte-identical; torn entries may be degraded but never wrong.
	s2, err := Open(Config{Dir: dir, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if q := s2.StatsSnapshot().Quarantined; q == 0 {
		t.Fatal("recovery scan quarantined nothing despite torn writes")
	}
	for i := 0; i < 30; i++ {
		e := entry(i, 1)
		if torn[e.ID] {
			if data, _, ok := s2.Get(e.ID); ok && !bytes.Equal(data, e.Result) {
				t.Fatalf("torn entry %s served wrong result bytes", e.ID)
			}
			if src, ok := s2.Source(e.ID); ok && !bytes.Equal(src, e.Source) {
				t.Fatalf("torn entry %s served wrong source bytes", e.ID)
			}
			continue
		}
		wantGet(t, s2, e.ID, "disk", e.Result)
		src, ok := s2.Source(e.ID)
		if !ok || !bytes.Equal(src, e.Source) {
			t.Fatalf("clean entry %s lost its source to someone else's torn write", e.ID)
		}
	}
}

func TestTruncatedSegmentRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		mustPut(t, s, entry(i, 1))
	}
	s.Close()

	// Chop the tail off one shard — the canonical torn-at-crash shape.
	victimPath := filepath.Join(dir, "shard-000.seg")
	fi, err := os.Stat(victimPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(victimPath, fi.Size()-30); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if q := s2.StatsSnapshot().Quarantined; q == 0 {
		t.Fatal("truncation quarantined nothing")
	}
	// Every name stays live (each entry's earlier records survive); at
	// most the final record's owner loses its result.
	if s2.Len() != 12 {
		t.Fatalf("Len after truncation = %d, want 12", s2.Len())
	}
	served := 0
	for i := 0; i < 12; i++ {
		e := entry(i, 1)
		if data, _, ok := s2.Get(e.ID); ok {
			if !bytes.Equal(data, e.Result) {
				t.Fatalf("entry %s served wrong bytes after truncation", e.ID)
			}
			served++
		} else {
			// The degraded entry must still be recomputable.
			src, ok := s2.Source(e.ID)
			if !ok || !bytes.Equal(src, e.Source) {
				t.Fatalf("entry %s lost both result and source", e.ID)
			}
		}
	}
	if served < 11 {
		t.Fatalf("only %d/12 results served; truncating one tail must cost at most one", served)
	}
}

func TestBitFlipQuarantinesOnlyDamagedRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mustPut(t, s, entry(i, 1))
	}
	s.Close()

	// Locate a mid-file record with the segment scanner and flip one body
	// byte — silent media corruption, no length damage.
	segPath := filepath.Join(dir, "shard-000.seg")
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	recs, bad := scanFile(t, data)
	if bad != 0 || len(recs) != 20 {
		t.Fatalf("pre-flip scan: %d records, %d bad; want 20, 0", len(recs), bad)
	}
	victim := recs[9]
	data[victim.bodyOff+victim.bodyLen/2] ^= 0x40
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if q := s2.StatsSnapshot().Quarantined; q != 1 {
		t.Fatalf("quarantined %d records, want exactly the flipped one", q)
	}
	if s2.Len() != 10 {
		t.Fatalf("Len = %d, want 10 (bit flip must not kill the entry)", s2.Len())
	}
	degraded := 0
	for i := 0; i < 10; i++ {
		e := entry(i, 1)
		resOK := false
		if data, _, ok := s2.Get(e.ID); ok {
			if !bytes.Equal(data, e.Result) {
				t.Fatalf("entry %s served flipped bytes", e.ID)
			}
			resOK = true
		}
		src, srcOK := s2.Source(e.ID)
		if srcOK && !bytes.Equal(src, e.Source) {
			t.Fatalf("entry %s served flipped source", e.ID)
		}
		if !resOK || !srcOK {
			degraded++
			if !resOK && !srcOK {
				t.Fatalf("entry %s lost both artifacts to a single bit flip", e.ID)
			}
		}
	}
	if degraded != 1 {
		t.Fatalf("%d entries degraded, want exactly 1", degraded)
	}
}

func TestCorruptFlushIsLatentUntilRead(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New(faultinject.Config{
		Seed:  7,
		Rate:  0.3,
		Kinds: []faultinject.Kind{faultinject.KindCorrupt},
		Sites: []string{"store.flush"},
	})
	fired := 0
	inj.SetObserver(func(string, string) { fired++ })
	s, err := Open(Config{Dir: dir, Shards: 2, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		// Bit-rot faults do not surface at write time — that is the point.
		mustPut(t, s, entry(i, 1))
	}
	if fired == 0 || fired == 20 {
		t.Fatalf("fault plan corrupted %d/20 flushes; need a mix", fired)
	}
	s.Close()

	s2, err := Open(Config{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if q := s2.StatsSnapshot().Quarantined; q == 0 {
		t.Fatal("latent corruption never caught")
	}
	for i := 0; i < 20; i++ {
		e := entry(i, 1)
		if data, _, ok := s2.Get(e.ID); ok && !bytes.Equal(data, e.Result) {
			t.Fatalf("entry %s served mangled result", e.ID)
		}
		if src, ok := s2.Source(e.ID); ok && !bytes.Equal(src, e.Source) {
			t.Fatalf("entry %s served mangled source", e.ID)
		}
	}
}

// TestReadTimeQuarantine corrupts a record underneath a live store and
// checks the read path (not just recovery) quarantines it: the result
// lookup degrades to a miss, the entry's other artifact keeps serving.
func TestReadTimeQuarantine(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Shards: 1, HotEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	a, b := entry(0, 1), entry(1, 1)
	mustPut(t, s, a)
	mustPut(t, s, b) // evicts a's result from the hot tier

	segPath := filepath.Join(dir, "shard-000.seg")
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := scanFile(t, data)
	// Records land in Put order: a.src, a.res, b.src, b.res.
	victim := recs[1]
	if victim.id != a.ID || victim.kind != recResult {
		t.Fatalf("unexpected record layout: %+v", victim)
	}
	f, err := os.OpenFile(segPath, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, victim.bodyOff); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, _, ok := s.Get(a.ID); ok {
		t.Fatal("Get served a corrupt record")
	}
	if q := s.StatsSnapshot().Quarantined; q != 1 {
		t.Fatalf("Quarantined = %d, want 1", q)
	}
	// Quarantine is sticky: the next lookup is a plain miss, no rescan.
	if _, _, ok := s.Get(a.ID); ok {
		t.Fatal("quarantined record resurrected")
	}
	if src, ok := s.Source(a.ID); !ok || !bytes.Equal(src, a.Source) {
		t.Fatal("source unavailable after result quarantine")
	}
	// Re-analysis write-back restores full service.
	if err := s.PutResult(a.ID, a.Result); err != nil {
		t.Fatal(err)
	}
	wantGet(t, s, a.ID, "hot", a.Result)
}

// TestCrossShardDeleteSurvivesCompaction pins the durable-delete
// invariant against the cross-shard supersede hazard: v1 and v2 of a name
// hash to different shards, so after Put(v1), Put(v2), Delete(v2) the
// only thing keeping v1's intact records (garbage in shard A, not yet
// compacted) dead at recovery is v2's tombstone in shard B. Compacting
// shard B must therefore carry the tombstone — dropping it would resurrect
// the deleted project on the next Open.
func TestCrossShardDeleteSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Shards: 4, CompactMinBytes: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Find a project whose v1 and v2 IDs land in different shards.
	var v1, v2 Entry
	found := false
	for i := 0; i < 64 && !found; i++ {
		a, b := entry(i, 1), entry(i, 2)
		if s.shardFor(a.ID) != s.shardFor(b.ID) {
			v1, v2, found = a, b, true
		}
	}
	if !found {
		t.Fatal("no entry pair split across shards in 64 candidates")
	}
	shA := s.shardFor(v1.ID)

	// Ballast: enough live bytes in shard A that invalidating v1 never
	// trips A's compaction (which would reclaim the garbage this test
	// needs to survive).
	ballast := make([]Entry, 0, 3)
	for j := 100; len(ballast) < 3; j++ {
		e := entry(j, 1)
		e.Source = bytes.Repeat([]byte("ballast-src "), 100)
		e.Result = bytes.Repeat([]byte("ballast-res "), 100)
		if s.shardFor(e.ID) == shA {
			mustPut(t, s, e)
			ballast = append(ballast, e)
		}
	}

	mustPut(t, s, v1)
	if prev := mustPut(t, s, v2); prev != v1.ID {
		t.Fatalf("Put(v2) superseded %q, want %q", prev, v1.ID)
	}
	// Delete v2: its records retire in shard B, so B's garbage exceeds its
	// live bytes (just the tombstone) and compaction triggers right there.
	if ok, err := s.Delete(v2.ID); !ok || err != nil {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if c := s.StatsSnapshot().Compactions; c == 0 {
		t.Fatal("tombstone shard never compacted; the scenario needs the compaction to run")
	}
	s.Close()

	s2, err := Open(Config{Dir: dir, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if id, ok := s2.LatestID(v1.Name); ok {
		t.Fatalf("deleted project resurrected after compaction + reopen as %q", id)
	}
	for _, id := range []string{v1.ID, v2.ID} {
		if _, _, ok := s2.Get(id); ok {
			t.Fatalf("deleted version %s still served after reopen", id)
		}
	}
	for _, e := range ballast {
		wantGet(t, s2, e.ID, "disk", e.Result)
	}
	// The guard must also survive a second compaction cycle and reopen.
	for v := 3; v <= 20; v++ {
		e := entry(200, v)
		e.Source = bytes.Repeat([]byte("churn "), 50)
		e.Result = bytes.Repeat([]byte("churn "), 50)
		mustPut(t, s2, e)
	}
	s2.Close()
	s3, err := Open(Config{Dir: dir, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if _, ok := s3.LatestID(v1.Name); ok {
		t.Fatal("deleted project resurrected after churn + reopen")
	}
}

// TestTombstoneDroppedOnceNameRelives pins the other half of the guard
// contract: once a deleted name is re-created with a newer sequence, its
// tombstone is superseded and compaction may drop it — the store must not
// leak one tombstone per ever-deleted name forever, and the re-created
// version must stay live across compaction and reopen.
func TestTombstoneDroppedOnceNameRelives(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Shards: 1, CompactMinBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := entry(0, 1), entry(0, 2)
	mustPut(t, s, v1)
	if ok, err := s.Delete(v1.ID); !ok || err != nil {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	mustPut(t, s, v2) // the name lives again, superseding the tombstone
	for v := 3; v <= 10; v++ {
		mustPut(t, s, entry(0, v)) // churn to force compactions
	}
	if c := s.StatsSnapshot().Compactions; c == 0 {
		t.Fatal("no compaction under churn")
	}
	if n := len(s.shards[0].tombs); n != 0 {
		t.Fatalf("%d tombstones still tracked after the name relived", n)
	}
	s.Close()

	s2, err := Open(Config{Dir: dir, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	want := entry(0, 10)
	id, ok := s2.LatestID(want.Name)
	if !ok || id != want.ID {
		t.Fatalf("LatestID = %q, %v; want %q live", id, ok, want.ID)
	}
	wantGet(t, s2, want.ID, "disk", want.Result)
}

// TestRecoveryScaleMixedDamage runs the full gauntlet — churn, deletes,
// then scattered damage — and checks the recovered store agrees with the
// survivors.
func TestRecoveryScaleMixedDamage(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		mustPut(t, s, entry(i, 1))
		if i%3 == 0 {
			mustPut(t, s, entry(i, 2)) // overwrite churn
		}
	}
	deleted := map[string]bool{}
	for _, i := range []int{4, 11, 19} {
		e := entry(i, 1)
		if ok, err := s.Delete(e.ID); !ok || err != nil {
			t.Fatalf("Delete(%s) = %v, %v", e.ID, ok, err)
		}
		deleted[e.Name] = true
	}
	s.Close()

	// Flip a byte in the middle of two shard files.
	for _, shard := range []string{"shard-001.seg", "shard-002.seg"} {
		p := filepath.Join(dir, shard)
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > 200 {
			data[len(data)/2] ^= 0x01
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	s2, err := Open(Config{Dir: dir, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 22 {
		t.Fatalf("Len = %d, want 22 (25 put, 3 deleted)", s2.Len())
	}
	for i := 0; i < 25; i++ {
		name := fmt.Sprintf("proj-%04d", i)
		id, live := s2.LatestID(name)
		if deleted[name] {
			if live {
				t.Fatalf("deleted %s resurrected", name)
			}
			continue
		}
		if !live {
			t.Fatalf("surviving %s not live", name)
		}
		want := entry(i, 1)
		if i%3 == 0 {
			want = entry(i, 2)
		}
		if id != want.ID {
			t.Fatalf("LatestID(%s) = %q, want %q", name, id, want.ID)
		}
		if data, _, ok := s2.Get(id); ok && !bytes.Equal(data, want.Result) {
			t.Fatalf("%s served wrong result", name)
		}
		if src, ok := s2.Source(id); ok && !bytes.Equal(src, want.Source) {
			t.Fatalf("%s served wrong source", name)
		}
	}
}

// TestFailedTombstoneKeepsEntryLive pins that a DELETE whose tombstone
// never landed did not happen: Delete reports the error, and the entry
// stays live in the index, the name map and the hot tier, with no commit
// fired — both in-process and after the next reopen.
func TestFailedTombstoneKeepsEntryLive(t *testing.T) {
	for _, site := range []string{"store.diskfull", "store.flush"} {
		t.Run(site, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(Config{Dir: dir, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			e := entry(0, 1)
			mustPut(t, s, e)
			s.Close()

			var log commitLog
			s, err = Open(Config{Dir: dir, Shards: 2, OnCommit: log.record, Fault: faultinject.New(faultinject.Config{
				Seed: 1, Rate: 1,
				Sites: []string{site},
				Kinds: []faultinject.Kind{faultinject.KindErr},
			})})
			if err != nil {
				t.Fatal(err)
			}
			deleted, err := s.Delete(e.ID)
			if err == nil || deleted {
				t.Fatalf("Delete with a failed tombstone = %v, %v; want false and the flush error", deleted, err)
			}
			if id, ok := s.LatestID(e.Name); !ok || id != e.ID {
				t.Fatalf("LatestID after a failed delete = %q, %v; want %q live", id, ok, e.ID)
			}
			wantGet(t, s, e.ID, "disk", e.Result)
			wantGet(t, s, e.ID, "hot", e.Result)
			if calls := log.take(); len(calls) != 0 {
				t.Fatalf("OnCommit fired for %v after a failed delete", calls)
			}
			s.Close()

			s2, err := Open(Config{Dir: dir, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if id, ok := s2.LatestID(e.Name); !ok || id != e.ID {
				t.Fatalf("LatestID after reopen = %q, %v; want %q live", id, ok, e.ID)
			}
			wantGet(t, s2, e.ID, "disk", e.Result)
		})
	}
}

// TestFailedPutKeepsPreviousVersion pins that a refused overwrite or
// result write-back installs nothing: the previous version stays the
// live one with its own bytes, and no commit fires.
func TestFailedPutKeepsPreviousVersion(t *testing.T) {
	var log commitLog
	s, err := Open(Config{Dir: t.TempDir(), Shards: 2, OnCommit: log.record})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	v1, v2 := entry(0, 1), entry(0, 2)
	mustPut(t, s, v1)
	log.take()

	s.fault = faultinject.New(faultinject.Config{
		Seed: 1, Rate: 1,
		Sites: []string{"store.flush"},
		Kinds: []faultinject.Kind{faultinject.KindErr},
	})
	if prev, err := s.Put(v2); err == nil || prev != "" {
		t.Fatalf("torn overwrite = %q, %v; want no superseded ID and the flush error", prev, err)
	}
	if err := s.PutResult(v1.ID, []byte("recomputed")); err == nil {
		t.Fatal("torn PutResult reported success")
	}
	if id, ok := s.LatestID(v1.Name); !ok || id != v1.ID {
		t.Fatalf("LatestID after a torn overwrite = %q, %v; want %q", id, ok, v1.ID)
	}
	wantGet(t, s, v1.ID, "hot", v1.Result)
	if _, _, ok := s.Get(v2.ID); ok {
		t.Fatal("torn overwrite served by Get")
	}
	if calls := log.take(); len(calls) != 0 {
		t.Fatalf("OnCommit fired for %v after refused writes", calls)
	}
}

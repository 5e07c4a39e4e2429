package store

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"schemaevo/internal/faultinject"
)

// flipResultByte injects real latent bit-rot: one body byte of id's
// result record is inverted on disk. The hot tier still holds the clean
// copy — exactly the situation read-time verification cannot see until
// eviction, and the scrubber exists to find.
func flipResultByte(t *testing.T, s *Store, id string) {
	t.Helper()
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m := sh.byID[id]
	if m == nil || !m.res.ok() {
		t.Fatalf("no live result record for %s", id)
	}
	buf := []byte{0}
	if _, err := sh.file.ReadAt(buf, m.res.bodyOff); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0xFF
	if _, err := sh.file.WriteAt(buf, m.res.bodyOff); err != nil {
		t.Fatal(err)
	}
}

// repairFromSource fabricates the server's repair callback at store
// level: read the (intact) source snapshot, "re-analyze" it by looking up
// the expected result, write it back.
func repairFromSource(s *Store, want map[string][]byte) func(context.Context, string) error {
	return func(_ context.Context, id string) error {
		if _, ok := s.Source(id); !ok {
			return fmt.Errorf("no readable source for %s", id)
		}
		return s.PutResult(id, want[id])
	}
}

func TestScrubDetectsAndRepairsBitRot(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n, rotted = 20, 7
	want := map[string][]byte{}
	for i := 0; i < n; i++ {
		e := entry(i, 1)
		mustPut(t, s, e)
		want[e.ID] = e.Result
	}
	for i := 0; i < rotted; i++ {
		flipResultByte(t, s, entry(i, 1).ID)
	}

	rep := s.ScrubOnce(context.Background(), ScrubConfig{
		Pace:   -1,
		Repair: repairFromSource(s, want),
	})
	if rep.Corrupt != rotted {
		t.Fatalf("scrub found %d corrupt records, want %d", rep.Corrupt, rotted)
	}
	// Every record was checked: n sources plus the n-rotted clean results.
	if wantV := 2*n - rotted; rep.Verified != wantV {
		t.Fatalf("scrub verified %d records, want %d", rep.Verified, wantV)
	}
	if rep.Repaired != rotted || rep.RepairFailed != 0 {
		t.Fatalf("repaired %d (failed %d), want %d repaired", rep.Repaired, rep.RepairFailed, rotted)
	}
	st := s.StatsSnapshot()
	if st.MissingResults != 0 {
		t.Fatalf("MissingResults = %d after repair, want 0", st.MissingResults)
	}
	if st.ScrubPasses != 1 || st.Repairs != int64(rotted) || st.Quarantined != int64(rotted) {
		t.Fatalf("stats = passes %d, repairs %d, quarantined %d", st.ScrubPasses, st.Repairs, st.Quarantined)
	}
	for id, res := range want {
		data, _, ok := s.Get(id)
		if !ok || !bytes.Equal(data, res) {
			t.Fatalf("Get(%s) after repair: ok=%v, wrong bytes", id, ok)
		}
	}

	// Supersede everything twice so garbage dominates live in every
	// shard (the tiny records stay under the default 1 MiB floor, so the
	// Puts themselves never compact), then verify a pass with a lowered
	// floor is the write-independent compaction trigger.
	for v := 2; v <= 3; v++ {
		for i := 0; i < n; i++ {
			e := entry(i, v)
			mustPut(t, s, e)
			want[e.ID] = e.Result
		}
	}
	s.compactMin = 1
	s.ScrubOnce(context.Background(), ScrubConfig{Pace: -1})
	if got := s.StatsSnapshot(); got.Compactions == 0 {
		t.Fatalf("scrub pass did not trigger compaction (garbage %d, live %d)", got.GarbageBytes, got.LiveBytes)
	}

	// And the healed store must reopen cleanly with every result durable.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{Dir: s.dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.StatsSnapshot(); st.Entries != n || st.MissingResults != 0 {
		t.Fatalf("reopen: entries %d, missing %d", st.Entries, st.MissingResults)
	}
}

func TestScrubCorruptSourceIsQuarantinedNotRepaired(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	e := entry(0, 1)
	mustPut(t, s, e)

	sh := s.shardFor(e.ID)
	sh.mu.Lock()
	m := sh.byID[e.ID]
	buf := []byte{0}
	if _, err := sh.file.ReadAt(buf, m.src.bodyOff); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0xFF
	if _, err := sh.file.WriteAt(buf, m.src.bodyOff); err != nil {
		t.Fatal(err)
	}
	sh.mu.Unlock()

	called := false
	rep := s.ScrubOnce(context.Background(), ScrubConfig{
		Pace:   -1,
		Repair: func(context.Context, string) error { called = true; return nil },
	})
	if rep.Corrupt != 1 || rep.Verified != 1 {
		t.Fatalf("corrupt %d / verified %d, want 1/1", rep.Corrupt, rep.Verified)
	}
	if called {
		t.Fatal("repair callback ran for an entry whose result is intact")
	}
	// The result still serves even though the source is gone.
	wantGet(t, s, e.ID, "hot", e.Result)
}

func TestScrubWithoutRepairCallbackCountsFailures(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	e := entry(0, 1)
	mustPut(t, s, e)
	flipResultByte(t, s, e.ID)
	// Evict the hot copy too: with it present the scrubber would repair
	// from memory without any callback (see TestScrubRepairsFromHotTier);
	// this test pins the path where no repair source remains.
	s.hot.remove(e.ID)

	rep := s.ScrubOnce(context.Background(), ScrubConfig{Pace: -1})
	if rep.Corrupt != 1 || rep.Repaired != 0 || rep.RepairFailed != 1 {
		t.Fatalf("report = %+v, want 1 corrupt, 1 repair-failed", rep)
	}
	if st := s.StatsSnapshot(); st.MissingResults != 1 {
		t.Fatalf("MissingResults = %d, want 1", st.MissingResults)
	}
}

// TestScrubRepairsFromHotTier pins the cheapest repair: when only the
// durable record rotted and the hot tier still holds the result, the
// scrubber restores durability by rewriting it — no callback, no
// re-analysis.
func TestScrubRepairsFromHotTier(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	e := entry(0, 1)
	mustPut(t, s, e)
	flipResultByte(t, s, e.ID)

	rep := s.ScrubOnce(context.Background(), ScrubConfig{Pace: -1})
	if rep.Corrupt != 1 || rep.Repaired != 1 || rep.RepairFailed != 0 {
		t.Fatalf("report = %+v, want 1 corrupt repaired from the hot tier", rep)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The rewrite must be durable: a cold reopen serves the result from
	// disk.
	s2, err := Open(Config{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	wantGet(t, s2, e.ID, "disk", e.Result)
}

func TestScrubFaultInjectedLatentCorruption(t *testing.T) {
	fi := faultinject.New(faultinject.Config{
		Seed: 11, Rate: 1,
		Sites: []string{"store.scrub"},
		Kinds: []faultinject.Kind{faultinject.KindCorrupt},
	})
	s, err := Open(Config{Dir: t.TempDir(), Shards: 4, Fault: fi})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 10
	want := map[string][]byte{}
	for i := 0; i < n; i++ {
		e := entry(i, 1)
		mustPut(t, s, e)
		want[e.ID] = e.Result
	}
	rep := s.ScrubOnce(context.Background(), ScrubConfig{
		Pace:   -1,
		Repair: repairFromSource(s, want),
	})
	// Rate 1 + KindCorrupt: every result record is treated as latently
	// corrupt, and every one must come back without operator action.
	if rep.Corrupt != n || rep.Repaired != n || rep.RepairFailed != 0 {
		t.Fatalf("report = %+v, want %d corrupt and %d repaired", rep, n, n)
	}
	if st := s.StatsSnapshot(); st.MissingResults != 0 {
		t.Fatalf("MissingResults = %d after repair, want 0", st.MissingResults)
	}
	for id, res := range want {
		data, _, ok := s.Get(id)
		if !ok || !bytes.Equal(data, res) {
			t.Fatalf("Get(%s) after repair: ok=%v, wrong bytes", id, ok)
		}
	}
}

// diskFullInjector makes every "store.diskfull" site it is asked about
// at the given rate fail with ENOSPC.
func diskFullInjector(rate float64) *faultinject.Injector {
	return faultinject.New(faultinject.Config{
		Seed: 3, Rate: rate,
		Sites: []string{"store.diskfull"},
		Kinds: []faultinject.Kind{faultinject.KindErr},
	})
}

// TestDiskFullFailsOnlyItsWrite: an ENOSPC on one key fails that write
// alone. The store stays writable, and a Put of another key right after
// it lands and serves.
func TestDiskFullFailsOnlyItsWrite(t *testing.T) {
	probe := diskFullInjector(0.5)
	full, room := -1, -1
	for i := 0; i < 64 && (full < 0 || room < 0); i++ {
		if probe.At("store.diskfull", entry(i, 1).ID) == faultinject.KindErr {
			full = i
		} else {
			room = i
		}
	}
	if full < 0 || room < 0 {
		t.Fatal("setup: the fault plan has no mix of full and free keys")
	}
	s, err := Open(Config{Dir: t.TempDir(), Shards: 2, Fault: diskFullInjector(0.5)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := s.Put(entry(full, 1)); !IsDiskFull(err) {
		t.Fatalf("Put(%s) on a full disk: %v, want ENOSPC", entry(full, 1).ID, err)
	}
	e := entry(room, 1)
	mustPut(t, s, e)
	wantGet(t, s, e.ID, "hot", e.Result)
	if st := s.StatsSnapshot(); st.DiskFullEvents != 1 || s.Len() != 1 {
		t.Fatalf("stats = diskFull %d, live %d; want 1, 1", st.DiskFullEvents, s.Len())
	}
}

// TestDiskFullAppendKeepsAckedWrites: on a disk where every append meets
// ENOSPC, each write is refused on its own, and every previously acked
// write still serves, then and after a reopen.
func TestDiskFullAppendKeepsAckedWrites(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	const acked = 5
	for i := 0; i < acked; i++ {
		mustPut(t, s, entry(i, 1))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen on a "full disk": every segment append hits injected ENOSPC.
	s, err = Open(Config{Dir: dir, Shards: 2, Fault: diskFullInjector(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := acked; i < acked+2; i++ {
		if _, err := s.Put(entry(i, 1)); !IsDiskFull(err) {
			t.Fatalf("Put %d on full disk: %v, want ENOSPC", i, err)
		}
	}
	// Every acked write still serves (hot tier is cold after reopen, so
	// these are true disk reads).
	for i := 0; i < acked; i++ {
		e := entry(i, 1)
		wantGet(t, s, e.ID, "disk", e.Result)
	}
	if st := s.StatsSnapshot(); st.DiskFullEvents != 2 {
		t.Fatalf("stats = diskFull %d; want 2", st.DiskFullEvents)
	}

	// A clean reopen (space freed, say) still has every acked write.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Len(); got != acked {
		t.Fatalf("reopen: %d entries, want %d", got, acked)
	}
	for i := 0; i < acked; i++ {
		e := entry(i, 1)
		wantGet(t, s2, e.ID, "disk", e.Result)
	}
}

// TestConcurrentDiskFullInstallsNothing races writers into ENOSPC: each
// refused write gets its own ENOSPC and installs nothing, and once space
// is back the next write lands. Run it under -race -count=10.
func TestConcurrentDiskFullInstallsNothing(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), Shards: 4, Fault: diskFullInjector(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const writers = 8
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		go func(i int) {
			_, err := s.Put(entry(i, 1))
			errs <- err
		}(i)
	}
	for i := 0; i < writers; i++ {
		if err := <-errs; !IsDiskFull(err) {
			t.Fatalf("Put on a full disk: %v, want ENOSPC", err)
		}
	}
	if st := s.StatsSnapshot(); st.DiskFullEvents != writers || s.Len() != 0 {
		t.Fatalf("after racing ENOSPC: diskFull %d, live %d; want %d, 0",
			st.DiskFullEvents, s.Len(), writers)
	}

	s.fault = nil // space freed
	e := entry(0, 1)
	mustPut(t, s, e)
	wantGet(t, s, e.ID, "hot", e.Result)
}

// TestDiskFullCompactionKeepsSegment: a compaction that meets ENOSPC
// aborts with the old segment untouched, and the next trigger, with
// space back, compacts.
func TestDiskFullCompactionKeepsSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Shards: 1, CompactMinBytes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Supersede every entry so more than half the shard is garbage.
	const n = 8
	for i := 0; i < n; i++ {
		mustPut(t, s, entry(i, 1))
	}
	for i := 0; i < n; i++ {
		mustPut(t, s, entry(i, 2))
	}

	s.fault = diskFullInjector(1)
	s.compactMin = 1
	sh := s.shards[0]
	sh.mu.Lock()
	if sh.garbage < sh.live {
		sh.mu.Unlock()
		t.Fatalf("setup: garbage %d < live %d, compaction would not trigger", sh.garbage, sh.live)
	}
	s.maybeCompactLocked(sh)
	sh.mu.Unlock()

	if st := s.StatsSnapshot(); st.Compactions != 0 || st.DiskFullEvents != 1 {
		t.Fatalf("compactions = %d, diskFull %d; want 0 (aborted), 1", st.Compactions, st.DiskFullEvents)
	}
	wantLive := func(when string) {
		t.Helper()
		for i := 0; i < n; i++ {
			e := entry(i, 2)
			data, _, ok := s.Get(e.ID)
			if !ok || !bytes.Equal(data, e.Result) {
				t.Fatalf("Get(%s) %s: ok=%v", e.ID, when, ok)
			}
		}
	}
	// The old segment is untouched: every live record still reads.
	wantLive("after aborted compaction")

	s.fault = nil // space freed
	sh.mu.Lock()
	s.maybeCompactLocked(sh)
	sh.mu.Unlock()
	if st := s.StatsSnapshot(); st.Compactions != 1 {
		t.Fatalf("compactions = %d after space came back, want 1", st.Compactions)
	}
	wantLive("after compaction")
}

func TestScrubSkipsEntriesOnInjectedReadError(t *testing.T) {
	fi := faultinject.New(faultinject.Config{
		Seed: 5, Rate: 1,
		Sites: []string{"store.scrub"},
		Kinds: []faultinject.Kind{faultinject.KindErr},
	})
	s, err := Open(Config{Dir: t.TempDir(), Shards: 2, Fault: fi})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustPut(t, s, entry(0, 1))
	rep := s.ScrubOnce(context.Background(), ScrubConfig{Pace: -1})
	if rep.Verified != 0 || rep.Corrupt != 0 {
		t.Fatalf("report = %+v, want the entry skipped", rep)
	}
}

func TestBackgroundScrubberHealsWithoutOperator(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 6
	want := map[string][]byte{}
	for i := 0; i < n; i++ {
		e := entry(i, 1)
		mustPut(t, s, e)
		want[e.ID] = e.Result
	}
	for i := 0; i < n; i += 2 {
		flipResultByte(t, s, entry(i, 1).ID)
	}

	s.StartScrubber(ScrubConfig{
		Interval: time.Millisecond,
		Pace:     -1,
		Repair:   repairFromSource(s, want),
	})
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.StatsSnapshot()
		if st.Repairs >= n/2 && st.MissingResults == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scrubber did not heal in time: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.StopScrubber()
	for id, res := range want {
		data, _, ok := s.Get(id)
		if !ok || !bytes.Equal(data, res) {
			t.Fatalf("Get(%s) after background heal: ok=%v", id, ok)
		}
	}
}

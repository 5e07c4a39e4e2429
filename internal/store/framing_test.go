package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"schemaevo/internal/telemetry"
)

// pinnedOps drives a fixed sequence of every framing path: fresh puts,
// supersedes, a large body, result refreshes, deletes (tombstones), a
// source-only put and the re-creation of a deleted name.
func pinnedOps(t *testing.T, s *Store) {
	t.Helper()
	for i := 0; i < 12; i++ {
		mustPut(t, s, entry(i, 1))
	}
	big := entry(12, 1)
	big.Result = bytes.Repeat([]byte("large result body "), 400)
	mustPut(t, s, big)
	for i := 0; i < 12; i++ {
		mustPut(t, s, entry(i, 2))
	}
	for _, i := range []int{1, 5, 10} {
		if err := s.PutResult(entry(i, 2).ID, []byte(fmt.Sprintf("re-analysis of %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 2; i < 12; i += 5 {
		if ok, err := s.Delete(entry(i, 2).ID); !ok || err != nil {
			t.Fatalf("Delete(%s) = %v, %v", entry(i, 2).ID, ok, err)
		}
	}
	srcOnly := entry(20, 1)
	srcOnly.Result = nil
	mustPut(t, s, srcOnly)
	mustPut(t, s, entry(2, 3))
}

// TestEncodingsPinned pins the segment files a fixed operation sequence
// leaves behind, once with appends only and once with compaction
// rewriting the shards after every write. The digests were recorded
// before framing moved to exact-size buffers; a change to them is a
// segment-format change and strands every store already on disk.
func TestEncodingsPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"append", Config{Shards: 3}, "c746c206b88829e51f100d7d511ec435af0f6a009508352840af65b049f06bd6"},
		{"compact", Config{Shards: 2, CompactMinBytes: 1}, "ea2d1988015322d06fb4dbd3977a2a156906f4f50d856b92ff7b7fe3adf11e6b"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Dir = t.TempDir()
			s, err := Open(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			pinnedOps(t, s)
			compactions := s.StatsSnapshot().Compactions
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if wantCompactions := tc.cfg.CompactMinBytes > 0; (compactions > 0) != wantCompactions {
				t.Fatalf("%d compactions; the %s sequence wants compaction = %v", compactions, tc.name, wantCompactions)
			}
			names, err := filepath.Glob(filepath.Join(tc.cfg.Dir, "shard-*.seg"))
			if err != nil || len(names) != tc.cfg.Shards {
				t.Fatalf("%d segment files (%v), want %d", len(names), err, tc.cfg.Shards)
			}
			sort.Strings(names)
			h := sha256.New()
			for _, name := range names {
				data, err := os.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%s %d\n", filepath.Base(name), len(data))
				h.Write(data)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("segment digest = %s, want %s", got, tc.want)
			}
		})
	}
}

// TestAllocBudgetStorePut pins that a disk-tier Put frames both records
// into one buffer of exact size: the allocations per Put are the same for
// 1 KiB and 64 KiB bodies (an appended-into buffer would grow more often
// the larger the bodies), and the frame is one of them.
func TestAllocBudgetStorePut(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), Shards: 1, CompactMinBytes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	allocs := func(size int) float64 {
		e := entry(1, 1)
		e.Source = bytes.Repeat([]byte{'s'}, size)
		e.Result = bytes.Repeat([]byte{'r'}, size)
		mustPut(t, s, e)
		return testing.AllocsPerRun(50, func() {
			if _, err := s.Put(e); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1<<10), allocs(64<<10)
	if small != large {
		t.Errorf("Put: %.0f allocs/op with 64 KiB bodies, %.0f with 1 KiB; want equal", large, small)
	}
	// The index entry and the frame.
	if large > 2 {
		t.Errorf("Put: %.0f allocs/op, want <= 2", large)
	}
}

// TestAllocBudgetScrubVerify pins that the scrubber verifies records
// without allocating: each one is read into the pass's buffer and checked
// in place.
func TestAllocBudgetScrubVerify(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var ids []string
	for i := 0; i < 8; i++ {
		e := entry(i, 1)
		e.Result = bytes.Repeat(e.Result, i+1)
		mustPut(t, s, e)
		ids = append(ids, e.ID)
	}
	var frame []byte
	var rep ScrubReport
	verifyAll := func() {
		for _, id := range ids {
			s.verifyEntry(context.Background(), s.shardFor(id), id, &rep, &frame)
		}
	}
	verifyAll()
	if rep.Verified != 2*len(ids) || rep.Corrupt != 0 {
		t.Fatalf("first pass verified %d, corrupt %d; want %d, 0", rep.Verified, rep.Corrupt, 2*len(ids))
	}
	if a := testing.AllocsPerRun(20, verifyAll); a != 0 {
		t.Errorf("verifying %d entries: %.0f allocs, want 0", len(ids), a)
	}
}

// TestHotTierChargesCapacity pins that the hot tier budgets what it keeps
// reachable — the capacity of each slice — on put, replace, eviction and
// remove.
func TestHotTierChargesCapacity(t *testing.T) {
	h := newHotTier(8, 100, telemetry.NewCounters(nil))
	h.put("a", make([]byte, 20, 40))
	if _, b := h.stats(); b != 40 {
		t.Fatalf("after put: %d bytes charged, want 40 (cap, not len)", b)
	}
	h.put("a", make([]byte, 10, 30))
	if _, b := h.stats(); b != 30 {
		t.Fatalf("after replace: %d bytes charged, want 30", b)
	}
	h.put("b", make([]byte, 30, 60)) // 90 charged: both fit
	h.put("c", make([]byte, 5, 20))  // 110 > 100: evicts a
	if n, b := h.stats(); n != 2 || b != 80 {
		t.Fatalf("after eviction: %d entries, %d bytes; want 2, 80", n, b)
	}
	if _, ok := h.get("a"); ok {
		t.Fatal("least recently used entry survived eviction")
	}
	h.remove("b")
	if n, b := h.stats(); n != 1 || b != 20 {
		t.Fatalf("after remove: %d entries, %d bytes; want 1, 20", n, b)
	}
}

// TestFrameIntactMatchesScan is the differential check behind the
// allocation-free verifier: over intact frames and their truncations,
// extensions, bit flips and resealed mutations (a fresh CRC, so the
// magic, length, kind and header-shape checks must catch the damage on
// their own), frameIntact accepts exactly the frames scanSegment reads
// back as one record spanning the whole input.
func TestFrameIntactMatchesScan(t *testing.T) {
	frames := [][]byte{
		appendRecord(nil, recSource, 1, "id", "name", "fp", []byte("body")),
		appendRecord(nil, recResult, 2, "", "", "", nil),
		appendRecord(nil, recTombstone, 3, "proj-0001-v1", "proj-0001", "fp-proj-0001-v1", nil),
		appendRecord(nil, recResult, 4, "x", "y", "z", bytes.Repeat(recMagic[:], 6)),
		// A body holding a whole intact frame: damage to the outer frame
		// lets the scan resynchronize onto the inner one.
		appendRecord(nil, recSource, 5, "a", "b", "c", appendRecord(nil, recResult, 6, "a", "b", "c", []byte("inner"))),
	}
	reseal := func(f []byte) []byte {
		if len(f) >= recFixed+4 {
			binary.LittleEndian.PutUint32(f[len(f)-4:], crc32.Checksum(f[4:len(f)-4], crcTable))
		}
		return f
	}
	var accepted, rejected int
	check := func(what string, f []byte) {
		t.Helper()
		recs, _, _, err := scanSegment(bytes.NewReader(f), 0, int64(len(f)), new([]byte))
		if err != nil {
			t.Fatal(err)
		}
		want := len(recs) == 1 && recs[0].total == int64(len(f))
		if got := frameIntact(f); got != want {
			t.Fatalf("%s: frameIntact = %v, scanSegment accepts = %v (%x)", what, got, want, f)
		}
		if want {
			accepted++
		} else {
			rejected++
		}
	}
	rng := rand.New(rand.NewSource(1))
	for fi, f := range frames {
		clone := func() []byte { return append([]byte(nil), f...) }
		check(fmt.Sprintf("frame %d", fi), clone())
		for cut := 0; cut < len(f); cut++ {
			check(fmt.Sprintf("frame %d cut at %d", fi, cut), clone()[:cut])
		}
		check(fmt.Sprintf("frame %d + trailing byte", fi), append(clone(), 0))
		check(fmt.Sprintf("frame %d twice", fi), append(clone(), f...))
		for i := range f {
			for bit := 0; bit < 8; bit++ {
				g := clone()
				g[i] ^= 1 << bit
				check(fmt.Sprintf("frame %d bit %d.%d", fi, i, bit), g)
				g = clone()
				g[i] ^= 1 << bit
				check(fmt.Sprintf("frame %d bit %d.%d resealed", fi, i, bit), reseal(g))
			}
		}
		// Plausible lengths written over the length fields and header
		// prefixes, resealed.
		for k := 0; k < 300; k++ {
			g := clone()
			at := 13 + rng.Intn(len(g)-13-4-3)
			binary.LittleEndian.PutUint32(g[at:], uint32(rng.Intn(len(g)+8)))
			if k%2 == 0 {
				g[4] = byte(rng.Intn(5))
			}
			check(fmt.Sprintf("frame %d lengths %d resealed", fi, k), reseal(g))
		}
	}
	// Both verdicts must occur among the mutations, not only among the
	// untouched frames, or the comparison shows nothing.
	if accepted <= len(frames) || rejected == 0 {
		t.Fatalf("accepted %d, rejected %d: the mutations do not exercise both verdicts", accepted, rejected)
	}
}

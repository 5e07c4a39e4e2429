package pipeline

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"
	"time"

	"schemaevo/internal/history"
	"schemaevo/internal/metrics"
	"schemaevo/internal/synth"
)

// validEntryBytes encodes one real project's analysis as a seed input.
func validEntryBytes(tb testing.TB) []byte {
	tb.Helper()
	c, err := synth.RandomCorpus(1, 9)
	if err != nil {
		tb.Fatal(err)
	}
	r := c.Projects[0].Repo
	h, err := history.FromRepo(r)
	if err != nil {
		tb.Fatal(err)
	}
	return EncodeResult(&CachedResult{
		Fingerprint: Fingerprint(r),
		Project:     r.Name,
		History:     h,
		Measures:    metrics.Compute(h),
	})
}

// validRepoBytes encodes one real project's source snapshot as a seed
// input.
func validRepoBytes(tb testing.TB) []byte {
	tb.Helper()
	c, err := synth.RandomCorpus(1, 9)
	if err != nil {
		tb.Fatal(err)
	}
	return EncodeRepo(c.Projects[0].Repo)
}

// flatImage frames whatever build writes as a flat image of one kind: a
// well-formed header, the field stream, then the arena.
func flatImage(magic [4]byte, version uint32, build func(w *flatEnc)) []byte {
	w := &flatEnc{
		buf: make([]byte, flatHeaderSize),
		ar:  &flatArena{intern: make(map[string]flatRef)},
	}
	build(w)
	ao := len(w.buf)
	img := append(w.buf, w.ar.data...)
	putFlatHeader(img, magic, version, ao, 0)
	return img
}

// flatSnapshot assembles a crafted snapshot: the repo name, then whatever
// build appends.
func flatSnapshot(build func(w *flatEnc)) []byte {
	return flatImage(repoMagic, repoFormatVersion, func(w *flatEnc) {
		w.str("repo")
		build(w)
	})
}

// truncatedSnapshot cuts the last field (the final commit's SrcLines) out
// of a valid snapshot's stream and re-frames the rest, so the header is
// sound and the decoder runs off the end of the stream.
func truncatedSnapshot(valid []byte) []byte {
	ao := int(binary.LittleEndian.Uint64(valid[8:16]))
	img := append(append([]byte(nil), valid[:ao-8]...), valid[ao:]...)
	putFlatHeader(img, repoMagic, repoFormatVersion, ao-8, 0)
	return img
}

// hugeCountSnapshot declares 2^32-2 commits.
func hugeCountSnapshot() []byte {
	return flatSnapshot(func(w *flatEnc) { w.u32(math.MaxUint32) })
}

// overCountSnapshot declares 255 commits over 256 stream bytes: within a
// byte-granular bound, beyond the 48-byte minimum commit.
func overCountSnapshot() []byte {
	return flatSnapshot(func(w *flatEnc) {
		w.u32(256)
		w.buf = append(w.buf, make([]byte, 256)...)
	})
}

// arenaRefSnapshot points the repo name's reference one past the arena.
func arenaRefSnapshot() []byte {
	data := flatSnapshot(func(w *flatEnc) { w.u32(1) }) // no commits
	arenaLen := binary.LittleEndian.Uint64(data[16:24])
	binary.LittleEndian.PutUint32(data[flatHeaderSize:], 0)
	binary.LittleEndian.PutUint32(data[flatHeaderSize+4:], uint32(arenaLen)+1)
	return data
}

// withHeaderByte returns a copy of img with header byte i set to v.
func withHeaderByte(img []byte, i int, v byte) []byte {
	out := append([]byte(nil), img...)
	out[i] = v
	return out
}

// flatEntry assembles a crafted flat entry: a well-formed header and
// entry prefix up to (and excluding) the history's table-pool count, then
// whatever build appends, then the arena. Crafted counts and references
// therefore land on a live decode path.
func flatEntry(build func(w *flatEnc)) []byte {
	return flatImage(flatMagic, cacheFormatVersion, func(w *flatEnc) {
		w.str("fp")
		w.str("proj")
		w.u8(1) // history present
		w.str("proj")
		w.str("schema.sql")
		build(w)
	})
}

// pool and slab-total header: empty pool, all slabs zero.
func emptyPool(w *flatEnc) {
	for i := 0; i < 8; i++ {
		w.u32(0)
	}
}

// hugeCountEntry carries a Versions count of 2^32-1, far beyond what the
// remaining stream bytes could hold. Must be rejected by the count bound,
// not overallocate.
func hugeCountEntry() []byte {
	return flatEntry(func(w *flatEnc) {
		emptyPool(w)
		w.u32(math.MaxUint32)
	})
}

// overCountEntry carries a Versions count that fits the remaining byte
// count but not the per-element minimum size — the case a byte-granular
// bound check would admit, overallocating before failing mid-loop.
func overCountEntry() []byte {
	return flatEntry(func(w *flatEnc) {
		emptyPool(w)
		w.u32(256) // 255 versions, but only 256 bytes follow
		w.buf = append(w.buf, make([]byte, 256)...)
	})
}

// poolIndexEntry has a version referencing table-pool index 5 of an empty
// pool — the out-of-range reference must be corruption, never an OOB read.
func poolIndexEntry() []byte {
	return flatEntry(func(w *flatEnc) {
		emptyPool(w)
		w.u32(2) // one version
		w.i64(0) // seq
		w.when(time.Time{})
		w.u8(1)  // schema present
		w.u32(1) // one table reference
		w.u32(5) // pool index 5 of 0
	})
}

// slabLieEntry declares zero slab totals but encodes a one-column table;
// the exhausted column slab must read as corruption.
func slabLieEntry() []byte {
	return flatEntry(func(w *flatEnc) {
		w.u32(1) // one pool table
		for i := 0; i < 7; i++ {
			w.u32(0) // all slab totals zero
		}
		w.str("t")
		w.u32(2) // one column, but the column slab is empty
	})
}

// arenaRefEntry carries a string reference reaching past the arena end.
func arenaRefEntry() []byte {
	data := flatEntry(func(w *flatEnc) { emptyPool(w) })
	// Rewrite the fingerprint reference (first 8 stream bytes) to point
	// one past the arena.
	arenaLen := binary.LittleEndian.Uint64(data[16:24])
	binary.LittleEndian.PutUint32(data[flatHeaderSize:], 0)
	binary.LittleEndian.PutUint32(data[flatHeaderSize+4:], uint32(arenaLen)+1)
	return data
}

// TestCodecCraftedCorruption pins the crafted corruptions specific to the
// flat layout: all must be rejected as corrupt entries, never panic,
// never index out of bounds, never overallocate.
func TestCodecCraftedCorruption(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"huge-count", hugeCountEntry()},
		{"count-exceeds-element-bound", overCountEntry()},
		{"pool-index-out-of-range", poolIndexEntry()},
		{"slab-totals-lie", slabLieEntry()},
		{"arena-ref-out-of-bounds", arenaRefEntry()},
	} {
		if _, err := DecodeResult(tc.data); err == nil {
			t.Errorf("%s: crafted entry accepted", tc.name)
		}
	}
}

// FuzzDecodeFlat hammers both flat decoders, DecodeResult and
// DecodeRepo, with every input: mutated (truncated, bit-flipped, crafted)
// results and snapshots. Neither may panic or slice out of bounds, and
// any input one accepts must re-encode into a stable fixed point
// (presence bytes, arena layout and, in a snapshot, repeated paths are
// the only non-canonical encodings, so equality is checked
// decode-to-decode, not byte-to-byte).
func FuzzDecodeFlat(f *testing.F) {
	f.Add(validEntryBytes(f))
	f.Add(hugeCountEntry())
	f.Add(overCountEntry())
	f.Add(poolIndexEntry())
	f.Add(slabLieEntry())
	f.Add(arenaRefEntry())
	f.Add([]byte{})
	f.Add(flatMagic[:])
	repo := validRepoBytes(f)
	f.Add(repo)
	f.Add(truncatedSnapshot(repo))
	f.Add(hugeCountSnapshot())
	f.Add(overCountSnapshot())
	f.Add(arenaRefSnapshot())
	f.Add(withHeaderByte(repo, 31, 1)) // reserved byte
	f.Add(withHeaderByte(repo, 24, 1)) // tag byte
	f.Fuzz(func(t *testing.T, data []byte) {
		if e, err := DecodeResult(data); err == nil {
			again, err := DecodeResult(EncodeResult(e))
			if err != nil {
				t.Fatalf("accepted entry does not re-encode: %v", err)
			}
			if !reflect.DeepEqual(e, again) {
				t.Fatal("re-encoded entry decodes differently")
			}
		}
		if r, err := DecodeRepo(data); err == nil {
			again, err := DecodeRepo(EncodeRepo(r))
			if err != nil {
				t.Fatalf("accepted snapshot does not re-encode: %v", err)
			}
			if !reflect.DeepEqual(r, again) {
				t.Fatal("re-encoded snapshot decodes differently")
			}
		}
	})
}

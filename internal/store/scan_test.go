package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"testing"
)

// scanRecords is the whole-buffer segment scan Open ran before the scan
// read through a window; FuzzScanSegment keeps it as the oracle for
// scanSegment. It walks segment bytes (past the file header), returning
// every intact record and the number of damaged ones skipped. base is the
// file offset of data[0], so returned spans address the file directly. On
// any damage — bad magic, impossible lengths, CRC mismatch, malformed
// header, torn tail — the scan counts one quarantined record and
// resynchronizes at the next frame magic.
func scanRecords(data []byte, base int64) (out []rec, quarantined int) {
	resync := func(from int) int {
		i := bytes.Index(data[from:], recMagic[:])
		if i < 0 {
			return len(data)
		}
		return from + i
	}
	off := 0
	for off < len(data) {
		if len(data)-off < recFixed || !bytes.Equal(data[off:off+4], recMagic[:]) {
			quarantined++
			off = resync(off + 1)
			continue
		}
		kind := data[off+4]
		seq := binary.LittleEndian.Uint64(data[off+5:])
		hdrLen := int64(binary.LittleEndian.Uint32(data[off+13:]))
		bodyLen := int64(binary.LittleEndian.Uint32(data[off+17:]))
		total := int64(recFixed) + hdrLen + bodyLen + 4
		if int64(off)+total > int64(len(data)) {
			quarantined++
			off = resync(off + 1)
			continue
		}
		end := off + int(total)
		want := binary.LittleEndian.Uint32(data[end-4:])
		if crc32.Checksum(data[off+4:end-4], crcTable) != want {
			quarantined++
			off = resync(off + 1)
			continue
		}
		id, name, fp, ok := parseHeader(data[off+recFixed : off+recFixed+int(hdrLen)])
		if !ok || (kind != recSource && kind != recResult && kind != recTombstone) {
			quarantined++
			off = resync(off + 1)
			continue
		}
		out = append(out, rec{
			kind: kind, seq: seq, id: id, name: name, fp: fp,
			start: base + int64(off), total: total,
			bodyOff: base + int64(off+recFixed) + hdrLen, bodyLen: bodyLen,
		})
		off = end
	}
	return out, quarantined
}

// scanFile scans a whole segment file's bytes past its header with
// scanSegment, through a reader over data.
func scanFile(t testing.TB, data []byte) ([]rec, int) {
	t.Helper()
	recs, bad, _, err := scanSegment(bytes.NewReader(data), int64(len(segHeader)), int64(len(data)), new([]byte))
	if err != nil {
		t.Fatal(err)
	}
	return recs, bad
}

// scanSeeds are FuzzScanSegment's starting inputs: segment bodies (the
// bytes past the file header) intact and damaged in each way recovery
// meets.
func scanSeeds() [][]byte {
	var intact []byte
	intact = appendRecord(intact, recSource, 1, "proj-0001-v1", "proj-0001", "fp-1", []byte("source of proj-0001"))
	intact = appendRecord(intact, recResult, 2, "proj-0001-v1", "proj-0001", "fp-1", bytes.Repeat(recMagic[:], 5))
	intact = appendRecord(intact, recTombstone, 3, "proj-0002-v1", "proj-0002", "fp-2", nil)
	intact = appendRecord(intact, recResult, 4, "", "", "", nil)
	// A body holding a whole intact frame: damage to the outer frame lets
	// the scan resynchronize onto the inner one.
	intact = appendRecord(intact, recSource, 5, "a", "b", "c", appendRecord(nil, recResult, 6, "a", "b", "c", []byte("inner")))
	clone := func() []byte { return append([]byte(nil), intact...) }

	seeds := [][]byte{nil, intact}
	seeds = append(seeds, clone()[:len(intact)-3]) // torn tail
	seeds = append(seeds, clone()[:recFixed+7])    // truncated inside the first record
	for _, at := range []int{0, 3, 4, 13, 17, recFixed + 2, 60, len(intact) / 2, len(intact) - 1} {
		g := clone()
		g[at] ^= 0x10 // bit flip: magic, kind, lengths, header, body, CRC
		seeds = append(seeds, g)
	}
	seeds = append(seeds, append([]byte("garbage!"), intact...))
	// Garbage of every length from 1 to 70 ahead of a record puts the
	// record's magic across the boundary of each small window.
	for n := 1; n <= 70; n += 3 {
		seeds = append(seeds, append(bytes.Repeat([]byte{'S'}, n), intact...))
	}
	// A lone partial magic at a window boundary, then a record.
	seeds = append(seeds, append(append(bytes.Repeat([]byte{0}, 61), 'S', 'E', 'V'), intact...))
	// Records larger than every window but the largest.
	big := appendRecord(nil, recResult, 7, "big", "big", "fp-big", bytes.Repeat([]byte("0123456789abcdef"), 400))
	seeds = append(seeds, append(clone(), big...))
	flipped := append(clone(), big...)
	flipped[len(intact)+recFixed+100] ^= 1
	seeds = append(seeds, append(flipped, intact...))
	// Lengths that claim more than the input holds.
	g := clone()
	binary.LittleEndian.PutUint32(g[17:], 1<<31)
	seeds = append(seeds, g)
	return seeds
}

// FuzzScanSegment checks scanSegment against the whole-buffer oracle: for
// every input, at window sizes from one byte to past the whole input, the
// windowed scan returns the same records and quarantine count, also when
// the input follows a file header and when the file turns out shorter
// than the size the scan was given (it shrank since it was measured).
// Run with
//
//	go test -run '^$' -fuzz '^FuzzScanSegment$' ./internal/store
func FuzzScanSegment(f *testing.F) {
	for _, s := range scanSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		file := append([]byte(segHeader), data...)
		cases := []struct {
			what       string
			data       []byte
			base, size int64
		}{
			{"bare", data, 0, int64(len(data))},
			{"after header", file, int64(len(segHeader)), int64(len(file))},
			{"shrunk", file, int64(len(segHeader)), int64(len(file)) + 1000},
		}
		for _, c := range cases {
			want, wantBad := scanRecords(c.data[c.base:], c.base)
			for _, window := range []int{1, recFixed - 1, 64, 4 << 10, len(c.data) + 1} {
				buf := make([]byte, window)
				got, bad, end, err := scanSegment(bytes.NewReader(c.data), c.base, c.size, &buf)
				label := fmt.Sprintf("%s, window %d", c.what, window)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !slices.Equal(got, want) || bad != wantBad {
					t.Fatalf("%s: %d records, %d quarantined; the oracle finds %d, %d\ngot  %+v\nwant %+v", label, len(got), bad, len(want), wantBad, got, want)
				}
				if end != int64(len(c.data)) {
					t.Fatalf("%s: scan ended at %d, the input at %d", label, end, len(c.data))
				}
			}
		}
	})
}

// TestScanSegmentHoldsOneWindow pins the scan's memory bound: over a
// segment of records smaller than the window, the buffer stays the
// window, and a record larger than it grows the buffer to that record.
func TestScanSegmentHoldsOneWindow(t *testing.T) {
	var seg []byte
	for i := 0; len(seg) < 3*scanWindow; i++ {
		seg = appendRecord(seg, recResult, uint64(i), fmt.Sprintf("id-%d", i), "n", "fp", bytes.Repeat([]byte{byte(i)}, 3000))
	}
	buf := make([]byte, scanWindow)
	recs, bad, _, err := scanSegment(bytes.NewReader(seg), 0, int64(len(seg)), &buf)
	if err != nil || bad != 0 || len(recs) == 0 {
		t.Fatalf("scan: %d records, %d bad, %v", len(recs), bad, err)
	}
	if cap(buf) != scanWindow {
		t.Fatalf("buffer grew to %d bytes over records smaller than the %d-byte window", cap(buf), scanWindow)
	}
	big := appendRecord(nil, recResult, 1, "big", "n", "fp", make([]byte, scanWindow+1))
	seg = append(seg, big...)
	if recs, bad, _, err = scanSegment(bytes.NewReader(seg), 0, int64(len(seg)), &buf); err != nil || bad != 0 {
		t.Fatalf("scan with a large record: %d bad, %v", bad, err)
	}
	if last := recs[len(recs)-1]; last.id != "big" || cap(buf) != len(big) {
		t.Fatalf("last record %q, buffer %d bytes; want %q and %d", last.id, cap(buf), "big", len(big))
	}
}

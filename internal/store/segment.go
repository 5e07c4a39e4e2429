package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
)

// Segment files are append-friendly logs of framed records. Every record
// is independently integrity-checked and self-describing, so recovery
// needs no index, no manifest and no trailing commit marker: a scan walks
// the file, verifies each frame's CRC-32C (Castagnoli, the same polynomial
// the pipeline's disk cache seals entries with), and resynchronizes on the
// next frame magic after any damage. A torn tail, a truncated file, or a
// bit flip therefore costs exactly the damaged records — everything before
// and after (appends land at the physical EOF, past any garbage) is
// served normally.
//
// Frame layout (all integers little-endian):
//
//	offset 0  magic "SEVR"
//	       4  kind (1 = source snapshot, 2 = result, 3 = tombstone)
//	       5  seq  (uint64; store-wide monotone, orders records across shards)
//	      13  header length (uint32)
//	      17  body length (uint32)
//	      21  header: len-prefixed id, name, fingerprint (uint32 prefixes)
//	       …  body: pipeline.EncodeRepo / pipeline.EncodeResult bytes (empty
//	          for tombstones)
//	       …  CRC-32C over bytes [4, 21+header+body)
//
// The header carries everything recovery needs to rebuild the in-memory
// index (id, name, fingerprint, liveness order via seq) without decoding
// bodies. The scan still reads and CRC-checks every byte, so a warm
// restart costs time in proportion to the data, not to the entries. It
// reads a segment through a fixed window (scanWindow), carrying a record
// the window cuts off to the front of the next read, so its memory is one
// window, or one record when a record is larger; Open runs one such scan
// per shard, on as many workers as there are cores and shards.

// segHeader opens every shard segment file.
const segHeader = "SEVSEG1\n"

// recMagic frames every record.
var recMagic = [4]byte{'S', 'E', 'V', 'R'}

// Record kinds.
const (
	recSource    byte = 1
	recResult    byte = 2
	recTombstone byte = 3
)

// recFixed is the fixed-size frame prefix: magic + kind + seq + two
// lengths.
const recFixed = 4 + 1 + 8 + 4 + 4

// crcTable is the Castagnoli table shared by all record checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// rec is one good record located during a segment scan, or assembled for
// an append.
type rec struct {
	kind             byte
	seq              uint64
	id, name, fp     string
	start, total     int64 // whole-frame span within the file
	bodyOff, bodyLen int64 // body span within the file
}

func le32(buf []byte, v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return append(buf, b[:]...)
}

func le64(buf []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(buf, b[:]...)
}

// appendRecord frames one record onto buf and returns the grown buffer.
// Writers size buf up front with recordSize, so a frame is built in one
// allocation of exactly its length.
func appendRecord(buf []byte, kind byte, seq uint64, id, name, fp string, body []byte) []byte {
	start := len(buf)
	hdrLen := 12 + len(id) + len(name) + len(fp)
	buf = append(buf, recMagic[:]...)
	buf = append(buf, kind)
	buf = le64(buf, seq)
	buf = le32(buf, uint32(hdrLen))
	buf = le32(buf, uint32(len(body)))
	buf = le32(buf, uint32(len(id)))
	buf = append(buf, id...)
	buf = le32(buf, uint32(len(name)))
	buf = append(buf, name...)
	buf = le32(buf, uint32(len(fp)))
	buf = append(buf, fp...)
	buf = append(buf, body...)
	return le32(buf, crc32.Checksum(buf[start+4:], crcTable))
}

// recordSize returns the framed size of a record with the given header
// strings and body length.
func recordSize(id, name, fp string, bodyLen int) int64 {
	return int64(recFixed + 12 + len(id) + len(name) + len(fp) + bodyLen + 4)
}

// parseHeader decodes the three length-prefixed header strings, reporting
// ok only when they consume the header exactly.
func parseHeader(hdr []byte) (id, name, fp string, ok bool) {
	next := func() (string, bool) {
		if len(hdr) < 4 {
			return "", false
		}
		n := int(binary.LittleEndian.Uint32(hdr))
		hdr = hdr[4:]
		if n < 0 || n > len(hdr) {
			return "", false
		}
		s := string(hdr[:n])
		hdr = hdr[n:]
		return s, true
	}
	if id, ok = next(); !ok {
		return
	}
	if name, ok = next(); !ok {
		return
	}
	if fp, ok = next(); !ok {
		return
	}
	return id, name, fp, len(hdr) == 0
}

// scanWindow is how many bytes the recovery scan reads at a time. A
// record larger than the window grows it to the record's size.
const scanWindow = 256 << 10

// scanSegment scans the segment bytes [base, size) of r, returning every
// intact record and the number of damaged ones skipped; record spans
// address r directly. On any damage — bad magic, impossible lengths,
// CRC mismatch, malformed header, torn tail — the scan counts one
// quarantined record and resynchronizes at the next frame magic.
//
// The bytes are read through *buf, whose capacity is the window (a
// caller scanning several segments passes the same buffer, and a zero
// capacity selects scanWindow). The scan preads one window at a time and
// carries the unscanned tail of a window to the front of the next rather
// than reading it again; it grows *buf only for a record that does not
// fit. It copies out every string it keeps, so the caller may reuse *buf.
// end is where the bytes ended: size, or less when r turned out shorter
// (a file that shrank since its size was taken).
func scanSegment(r io.ReaderAt, base, size int64, buf *[]byte) (recs []rec, quarantined int, end int64, err error) {
	if cap(*buf) == 0 {
		*buf = make([]byte, scanWindow)
	}
	w := window{r: r, buf: *buf, start: base, size: size}
	defer func() { *buf = w.buf }()
	// resync returns the offset of the next frame magic at or after from,
	// or the end of the bytes when there is none.
	resync := func(from int64) (int64, error) {
		for from < w.size {
			b, err := w.at(from, int64(len(recMagic)))
			if err != nil {
				return 0, err
			}
			if i := bytes.Index(b, recMagic[:]); i >= 0 {
				return from + int64(i), nil
			}
			if len(b) < len(recMagic) {
				break
			}
			// The window's last bytes may begin a magic it cuts off.
			from += int64(len(b) - len(recMagic) + 1)
		}
		return w.size, nil
	}
	off := base
	for off < w.size {
		b, err := w.at(off, recFixed)
		if err != nil {
			return nil, 0, 0, err
		}
		if len(b) == 0 {
			break // the file ended early, at off
		}
		ok := len(b) >= recFixed && bytes.Equal(b[:4], recMagic[:])
		var kind byte
		var seq uint64
		var hdrLen, bodyLen, total int64
		if ok {
			kind = b[4]
			seq = binary.LittleEndian.Uint64(b[5:])
			hdrLen = int64(binary.LittleEndian.Uint32(b[13:]))
			bodyLen = int64(binary.LittleEndian.Uint32(b[17:]))
			total = recFixed + hdrLen + bodyLen + 4
			ok = off+total <= w.size
		}
		if ok {
			if b, err = w.at(off, total); err != nil {
				return nil, 0, 0, err
			}
			// The file may end short of total after all (it shrank).
			ok = int64(len(b)) >= total
		}
		var id, name, fp string
		if ok {
			frame := b[:total]
			ok = crc32.Checksum(frame[4:total-4], crcTable) == binary.LittleEndian.Uint32(frame[total-4:])
			if ok {
				id, name, fp, ok = parseHeader(frame[recFixed : recFixed+hdrLen])
				ok = ok && (kind == recSource || kind == recResult || kind == recTombstone)
			}
		}
		if !ok {
			quarantined++
			if off, err = resync(off + 1); err != nil {
				return nil, 0, 0, err
			}
			continue
		}
		recs = append(recs, rec{
			kind: kind, seq: seq, id: id, name: name, fp: fp,
			start: off, total: total,
			bodyOff: off + recFixed + hdrLen, bodyLen: bodyLen,
		})
		off += total
	}
	return recs, quarantined, w.size, nil
}

// window is scanSegment's view of its input: buf[:n] holds the bytes
// [start, start+n) of r, and size is where they end.
type window struct {
	r     io.ReaderAt
	buf   []byte
	start int64
	n     int
	size  int64
}

// at returns the bytes buffered from off on, reading so that there are at
// least need of them or, failing that, all up to the end. A read that
// meets the end of r early lowers size to it.
func (w *window) at(off, need int64) ([]byte, error) {
	need = min(need, w.size-off)
	if off+need <= w.start+int64(w.n) {
		return w.buf[off-w.start : w.n], nil
	}
	// Keep the buffered bytes from off on, at the front; drop the rest.
	keep := 0
	if off < w.start+int64(w.n) {
		keep = copy(w.buf, w.buf[off-w.start:w.n])
	}
	if int64(cap(w.buf)) < need {
		grown := make([]byte, need)
		copy(grown, w.buf[:keep])
		w.buf = grown
	}
	w.buf = w.buf[:cap(w.buf)]
	w.start, w.n = off, keep
	want := min(int64(len(w.buf)), w.size-off)
	m, err := w.r.ReadAt(w.buf[w.n:want], off+int64(w.n))
	w.n += m
	if err == io.EOF {
		w.size, err = off+int64(w.n), nil
	}
	if err != nil {
		return nil, err
	}
	return w.buf[:w.n], nil
}

// frameIntact reports whether frame is exactly one intact record: magic,
// lengths that add up to len(frame), CRC, a known kind, and a header of
// three length-prefixed strings that consume it exactly. It accepts the
// frames scanSegment returns as a single record spanning the whole input,
// and rejects the rest, without materializing anything.
func frameIntact(frame []byte) bool {
	if len(frame) < recFixed || !bytes.Equal(frame[:4], recMagic[:]) {
		return false
	}
	hdrLen := int64(binary.LittleEndian.Uint32(frame[13:]))
	bodyLen := int64(binary.LittleEndian.Uint32(frame[17:]))
	if int64(recFixed)+hdrLen+bodyLen+4 != int64(len(frame)) {
		return false
	}
	end := len(frame) - 4
	if crc32.Checksum(frame[4:end], crcTable) != binary.LittleEndian.Uint32(frame[end:]) {
		return false
	}
	if kind := frame[4]; kind != recSource && kind != recResult && kind != recTombstone {
		return false
	}
	hdr := frame[recFixed : recFixed+int(hdrLen)]
	for i := 0; i < 3; i++ { // id, name, fingerprint
		if len(hdr) < 4 {
			return false
		}
		n := binary.LittleEndian.Uint32(hdr)
		hdr = hdr[4:]
		if uint64(n) > uint64(len(hdr)) {
			return false
		}
		hdr = hdr[n:]
	}
	return len(hdr) == 0
}

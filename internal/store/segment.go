package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
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
// restart costs time in proportion to the data, not to the entries.

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

// scanRecords walks segment bytes (past the file header), returning every
// intact record and the number of damaged ones skipped. base is the file
// offset of data[0], so returned spans address the file directly. On any
// damage — bad magic, impossible lengths, CRC mismatch, malformed header,
// torn tail — the scan counts one quarantined record and resynchronizes at
// the next frame magic.
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

// frameIntact reports whether frame is exactly one intact record: magic,
// lengths that add up to len(frame), CRC, a known kind, and a header of
// three length-prefixed strings that consume it exactly. It accepts the
// frames scanRecords returns as a single record spanning the whole input,
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

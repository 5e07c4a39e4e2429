package pipeline

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"
	"unsafe"

	"schemaevo/internal/diff"
	"schemaevo/internal/history"
	"schemaevo/internal/metrics"
	"schemaevo/internal/schema"
	"schemaevo/internal/sqlddl"
	"schemaevo/internal/vcs"
)

// The pipeline persists two kinds of binary images in one flat, zero-copy
// format: analysis results (cache entries and the result store's records,
// EncodeResult) and source snapshots (the result store's source records,
// EncodeRepo). Both share one header:
//
//	[0:4]   magic: "SEVF" for a result, "SEVS" for a snapshot
//	[4:8]   u32 format version (cacheFormatVersion, repoFormatVersion)
//	[8:16]  u64 arena offset
//	[16:24] u64 arena length (offset + length == image size, exactly)
//	[24]    u8 tag: a result's dialect (sqlddl.DialectID of the history;
//	        0 = generic); zero in a snapshot
//	[25:32] reserved, must be zero
//	[32:ao] fixed-width field stream
//	[ao:]   string arena
//
// The dialect tag lives in the header rather than the field stream so
// tooling can classify an entry without decoding it; the decoder rejects
// tags outside the known DialectID range and nonzero reserved bytes, so
// the encoding stays canonical (value-equal entries are byte-equal).
//
// Every field in the stream has a fixed width: integers and floats are 8
// bytes little-endian, presence flags and booleans one byte, slice and
// map counts u32 (0 = nil, n+1 otherwise), times (UnixNano, zone offset
// seconds; the zone name is dropped, as a JSON RFC 3339 round trip drops
// it), and every string an 8-byte (offset, length) reference into the
// arena. A decoded image therefore allocates no per-string memory at all:
// strings are bounds-checked views over the arena (unsafe.String). The
// decoder never copies the arena, so the backing buffer must outlive what
// was decoded from it and never change. The cache reads each entry into a
// heap buffer of its own, and the store's records are heap buffers it
// never writes to again, so the views keep that buffer reachable and the
// GC frees it with the last decoded string that uses it. A caller that
// keeps one decoded string for long (a name in an index) copies it rather
// than pin the whole image.
//
// A result's arena is deduplicated — each distinct string is stored once.
// A snapshot's is not: EncodeRepo sizes the image in a first pass and
// writes it straight into one buffer of exact size, so it needs no
// pooled scratch and no intern map (see EncodeRepo).
//
// The predecessor format re-encoded every version's full table list, so a
// warm decode allocated every table fresh even though cold assembly shares
// unchanged tables pointer-identically across versions (schema.CloneCOW).
// The flat format restores that sharing on the read side: tables are
// written once into a value-deduplicated pool (dedup key = encoded bytes,
// first-encounter order, so encoding stays deterministic for value-equal
// inputs even when the in-memory pointer structure differs, e.g. after an
// incremental ExtendResult), and each version's schema is a list of u32
// pool indexes. The header additionally carries slab totals (columns,
// string elements, foreign keys, ...) so the decoder can allocate each
// kind of element as one slab instead of per-table slices.
//
// Decoded schema snapshots are Sealed, exactly like freshly computed
// ones: the pool tables are shared across versions, so any later mutation must go
// through the copy-on-write path.
//
// The result encoder builds each entry once. Its working state — field stream,
// arena and intern map, table pool and its two dedup maps, the
// per-version pool index lists — lives in a flatScratch taken from a
// sync.Pool, so a warm encode allocates nothing of its own. The entry
// image an encode produces is a view of the scratch and never outlives
// it: EncodeResult copies it out once into a buffer of exact size, which the store's hot tier keeps; the disk cache seals
// the CRC trailer onto the scratch and writes straight from it.

var errCorruptEntry = errors.New("pipeline: corrupt cache entry")

// The magics guard against feeding arbitrary bytes to a decoder, or one
// kind of image to the other's.
var (
	flatMagic = [4]byte{'S', 'E', 'V', 'F'}
	repoMagic = [4]byte{'S', 'E', 'V', 'S'}
)

// repoFormatVersion identifies the snapshot layout; bump it whenever
// vcs.Repo or its encoding changes shape. Version 1 was a variable-width
// length-prefixed stream; version 2 is the flat format.
const repoFormatVersion = 2

const flatHeaderSize = 32

// putFlatHeader fills the header of img, an image whose field stream ends
// and arena begins at arenaOff. The reserved bytes are left as they are:
// zero, in every buffer the encoders build.
func putFlatHeader(img []byte, magic [4]byte, version uint32, arenaOff int, tag byte) {
	copy(img[0:4], magic[:])
	binary.LittleEndian.PutUint32(img[4:8], version)
	binary.LittleEndian.PutUint64(img[8:16], uint64(arenaOff))
	binary.LittleEndian.PutUint64(img[16:24], uint64(len(img)-arenaOff))
	img[24] = tag
}

// flatRef locates one string in the arena.
type flatRef struct{ off, n uint32 }

// flatArena accumulates string data during encoding, deduplicated through
// intern unless intern is nil.
type flatArena struct {
	data   []byte
	intern map[string]flatRef
}

func (a *flatArena) ref(s string) flatRef {
	if s == "" {
		return flatRef{}
	}
	if r, ok := a.intern[s]; ok {
		return r
	}
	r := flatRef{off: uint32(len(a.data)), n: uint32(len(s))}
	a.data = append(a.data, s...)
	if a.intern != nil {
		a.intern[s] = r
	}
	return r
}

// flatEnc writes the fixed-width field stream. Multiple encoders may
// share one arena (the table pool is encoded out-of-line, then spliced
// into the stream ahead of the versions that reference it).
type flatEnc struct {
	buf []byte
	ar  *flatArena
}

func (e *flatEnc) u8(v byte) { e.buf = append(e.buf, v) }
func (e *flatEnc) bool8(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

func (e *flatEnc) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

func (e *flatEnc) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

func (e *flatEnc) i64(v int64)   { e.u64(uint64(v)) }
func (e *flatEnc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *flatEnc) str(s string)  { r := e.ar.ref(s); e.u32(r.off); e.u32(r.n) }

// cnt encodes a slice length, distinguishing nil (0) from empty (1).
func (e *flatEnc) cnt(n int, isNil bool) {
	if isNil {
		e.u32(0)
		return
	}
	e.u32(uint32(n) + 1)
}

func (e *flatEnc) when(t time.Time) {
	e.u64(uint64(t.UnixNano()))
	_, off := t.Zone()
	e.i64(int64(off))
}

func (e *flatEnc) strs(ss []string) {
	e.cnt(len(ss), ss == nil)
	for _, s := range ss {
		e.str(s)
	}
}

func (e *flatEnc) ints(vs []int) {
	e.cnt(len(vs), vs == nil)
	for _, v := range vs {
		e.i64(int64(v))
	}
}

func (e *flatEnc) table(t *schema.Table) {
	e.str(t.Name)
	e.cnt(len(t.Columns), t.Columns == nil)
	for i := range t.Columns {
		c := &t.Columns[i]
		e.str(c.Name)
		e.str(c.Type)
		e.str(c.Default)
		var f byte
		if c.NotNull {
			f |= 1
		}
		if c.HasDefault {
			f |= 2
		}
		if c.AutoIncrement {
			f |= 4
		}
		if c.InPK {
			f |= 8
		}
		e.u8(f)
	}
	e.strs(t.PrimaryKey)
	e.cnt(len(t.ForeignKeys), t.ForeignKeys == nil)
	for i := range t.ForeignKeys {
		fk := &t.ForeignKeys[i]
		e.str(fk.Name)
		e.strs(fk.Columns)
		e.str(fk.RefTable)
		e.strs(fk.RefColumns)
	}
	e.cnt(len(t.Uniques), t.Uniques == nil)
	for _, u := range t.Uniques {
		e.strs(u)
	}
}

func (e *flatEnc) delta(dl *diff.Delta) {
	if dl == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.strs(dl.TablesAdded)
	e.strs(dl.TablesDropped)
	e.i64(int64(dl.NBornWithTable))
	e.i64(int64(dl.NInjected))
	e.i64(int64(dl.NDeletedWithTable))
	e.i64(int64(dl.NEjected))
	e.i64(int64(dl.NTypeChanged))
	e.i64(int64(dl.NKeyChanged))
	e.cnt(len(dl.Changes), dl.Changes == nil)
	for i := range dl.Changes {
		ch := &dl.Changes[i]
		e.str(ch.Table)
		e.str(ch.Attr)
		e.i64(int64(ch.Kind))
	}
}

// flatTotals are the slab sizes written ahead of the table pool so the
// decoder can allocate each element kind once.
type flatTotals struct {
	cols, strs, uniq, fks, deltas, changes, notes uint32
}

// flatScratch is the encoder's working state, pooled and reused across
// encodes (see the file comment); release resets it.
type flatScratch struct {
	w      flatEnc // header and field stream; the arena is appended last
	pool   flatEnc // table pool, spliced into w ahead of the versions
	arena  flatArena
	byPtr  map[*schema.Table]uint32
	byVal  map[string]uint32 // keys are views of pool.buf (see assign)
	refs   []uint32          // per version with a schema: table count, then pool indexes
	tables []*schema.Table   // the current version's tables
}

var flatScratchPool = sync.Pool{New: func() any {
	s := &flatScratch{
		arena: flatArena{intern: make(map[string]flatRef, 64)},
		byPtr: make(map[*schema.Table]uint32),
		byVal: make(map[string]uint32),
	}
	s.w.ar, s.pool.ar = &s.arena, &s.arena
	return s
}}

func getFlatScratch() *flatScratch { return flatScratchPool.Get().(*flatScratch) }

// release empties s and returns it to the pool. Clearing the maps and the
// table list drops every reference into the encoded entry, and clears
// byVal before the pool bytes its keys view are overwritten.
func (s *flatScratch) release() {
	s.w.buf = s.w.buf[:0]
	s.pool.buf = s.pool.buf[:0]
	s.arena.data = s.arena.data[:0]
	clear(s.arena.intern)
	clear(s.byPtr)
	clear(s.byVal)
	s.refs = s.refs[:0]
	clear(s.tables)
	s.tables = s.tables[:0]
	flatScratchPool.Put(s)
}

// assign returns t's pool index, encoding t into the pool the first time
// a value-equal table is seen. byVal is keyed by views of the pool bytes
// themselves, so deduplicating allocates no key: an inserted key's bytes
// are never rewritten while the map holds it (truncation drops only a
// candidate that was not inserted, and release clears the map before the
// buffer is reused), and the map compares whole keys, so only byte-equal
// tables share an index.
func (s *flatScratch) assign(t *schema.Table, tot *flatTotals) uint32 {
	if i, ok := s.byPtr[t]; ok {
		return i
	}
	start := len(s.pool.buf)
	s.pool.table(t)
	enc := s.pool.buf[start:]
	if i, ok := s.byVal[string(enc)]; ok {
		// Value-equal to an already pooled table under a different
		// pointer: discard the re-encoded bytes, reuse the index.
		s.pool.buf = s.pool.buf[:start]
		s.byPtr[t] = i
		return i
	}
	i := uint32(len(s.byVal))
	s.byVal[unsafe.String(&enc[0], len(enc))] = i
	s.byPtr[t] = i
	tot.cols += uint32(len(t.Columns))
	tot.strs += uint32(len(t.PrimaryKey))
	tot.fks += uint32(len(t.ForeignKeys))
	for j := range t.ForeignKeys {
		tot.strs += uint32(len(t.ForeignKeys[j].Columns) + len(t.ForeignKeys[j].RefColumns))
	}
	tot.uniq += uint32(len(t.Uniques))
	for _, u := range t.Uniques {
		tot.strs += uint32(len(u))
	}
	return i
}

func (s *flatScratch) history(h *history.History) {
	e := &s.w
	if h == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.str(h.Project)
	e.str(h.DDLPath)

	// Walk the versions once to build the deduplicated table pool and the
	// per-version index lists, accumulating slab totals along the way. The
	// pool is encoded into a side buffer sharing the arena, so its string
	// references are final when spliced into the stream.
	var tot flatTotals
	for i := range h.Versions {
		v := &h.Versions[i]
		if v.Schema != nil {
			s.tables = v.Schema.AppendTables(s.tables[:0])
			s.refs = append(s.refs, uint32(len(s.tables)))
			for _, t := range s.tables {
				s.refs = append(s.refs, s.assign(t, &tot))
			}
		}
		if v.Delta != nil {
			tot.deltas++
			tot.changes += uint32(len(v.Delta.Changes))
			tot.strs += uint32(len(v.Delta.TablesAdded) + len(v.Delta.TablesDropped))
		}
		tot.notes += uint32(len(v.Notes))
	}

	e.u32(uint32(len(s.byVal)))
	e.u32(tot.cols)
	e.u32(tot.strs)
	e.u32(tot.uniq)
	e.u32(tot.fks)
	e.u32(tot.deltas)
	e.u32(tot.changes)
	e.u32(tot.notes)
	e.buf = append(e.buf, s.pool.buf...)

	e.cnt(len(h.Versions), h.Versions == nil)
	refs := s.refs
	for i := range h.Versions {
		v := &h.Versions[i]
		e.i64(int64(v.Seq))
		e.when(v.Time)
		if v.Schema == nil {
			e.u8(0)
		} else {
			// The table count, then its pool indexes.
			e.u8(1)
			n := refs[0] + 1
			for _, r := range refs[:n] {
				e.u32(r)
			}
			refs = refs[n:]
		}
		e.delta(v.Delta)
		e.cnt(len(v.Notes), v.Notes == nil)
		for j := range v.Notes {
			e.i64(int64(v.Notes[j].Stmt))
			e.str(v.Notes[j].Msg)
		}
	}
	e.when(h.Start)
	e.when(h.End)
	e.ints(h.SchemaMonthly)
	e.ints(h.SourceMonthly)
	e.i64(int64(h.ExpansionTotal))
	e.i64(int64(h.MaintenanceTotal))
}

func (e *flatEnc) measures(m *metrics.Measures) {
	e.str(m.Project)
	e.i64(int64(m.PUPMonths))
	e.bool8(m.HasSchema)
	e.i64(int64(m.BirthMonth))
	e.f64(m.BirthPct)
	e.f64(m.BirthVolumePct)
	e.i64(int64(m.TopBandMonth))
	e.f64(m.TopBandPct)
	e.f64(m.IntervalBirthToTopPct)
	e.f64(m.IntervalTopToEndPct)
	e.bool8(m.HasVault)
	e.i64(int64(m.ActiveGrowthMonths))
	e.f64(m.ActivePctGrowth)
	e.f64(m.ActivePctPUP)
	e.i64(int64(m.TotalActivity))
	e.i64(int64(m.Expansion))
	e.i64(int64(m.Maintenance))
	e.i64(int64(m.TablesAtBirth))
	e.i64(int64(m.AttrsAtBirth))
	e.i64(int64(m.TablesAtEnd))
	e.i64(int64(m.AttrsAtEnd))
	e.cnt(len(m.Vector), m.Vector == nil)
	for _, v := range m.Vector {
		e.f64(v)
	}
}

// encode serializes r into the scratch and returns the entry image:
// header, field stream, arena. The bytes belong to the scratch; they are
// valid until release and must not escape it. Encoding is deterministic:
// value-equal entries produce identical bytes, which the result store's
// content addressing and the differential tests rely on.
func (s *flatScratch) encode(r *CachedResult) []byte {
	var hdr [flatHeaderSize]byte
	w := &s.w
	w.buf = append(w.buf[:0], hdr[:]...)
	w.str(r.Fingerprint)
	w.str(r.Project)
	s.history(r.History)
	w.measures(&r.Measures)
	ao := len(w.buf)
	w.buf = append(w.buf, s.arena.data...)
	var tag byte
	if r.History != nil {
		tag = byte(r.History.Dialect)
	}
	putFlatHeader(w.buf, flatMagic, cacheFormatVersion, ao, tag)
	return w.buf
}

// EncodeResult serializes a result in the flat format into a buffer of
// its own, of exact size (cap == len). The bytes round-trip exactly
// through DecodeResult; they carry no checksum trailer (in-memory stores
// do not bit-rot — the disk cache adds CRC-32C separately via its
// seal/unseal layer).
func EncodeResult(r *CachedResult) []byte {
	s := getFlatScratch()
	b := s.encode(r)
	out := make([]byte, len(b))
	copy(out, b)
	s.release()
	return out
}

// EncodeRepo serializes a source snapshot: the repo name, then per commit
// its ID, time, message, files, deleted paths and SrcLines. Files are
// written in sorted-path order, so equal repos encode to equal bytes,
// which the store's content addressing and the differential tests rely
// on. The bytes round-trip exactly through DecodeRepo up to time-zone
// names (only the UTC offset is kept), which the analysis never reads:
// fingerprints and results of the decoded repo are identical to the
// original's.
//
// A sizing pass first, so the image is written in one allocation of
// exactly its length: the stream straight into its place, the arena into
// the capacity behind it. Deduplicating the arena would need an intern
// map, and so pooled scratch; without one, the number of allocations
// does not grow with the snapshot.
func EncodeRepo(r *vcs.Repo) []byte {
	stream, arena := flatHeaderSize+8+4, len(r.Name)
	for i := range r.Commits {
		c := &r.Commits[i]
		stream += 8 + 16 + 8 + 4 + 16*len(c.Files) + 4 + 8*len(c.Deleted) + 8
		arena += len(c.ID) + len(c.Message)
		for p, body := range c.Files {
			arena += len(p) + len(body)
		}
		for _, p := range c.Deleted {
			arena += len(p)
		}
	}
	out := make([]byte, stream+arena)
	w := &flatEnc{buf: out[:flatHeaderSize:stream], ar: &flatArena{data: out[stream:stream]}}
	w.str(r.Name)
	w.cnt(len(r.Commits), r.Commits == nil)
	var few [8]string // the path list; most commits touch a few files
	paths := few[:0]
	for i := range r.Commits {
		c := &r.Commits[i]
		w.str(c.ID)
		w.when(c.Time)
		w.str(c.Message)
		w.cnt(len(c.Files), c.Files == nil)
		paths = paths[:0]
		for p := range c.Files {
			paths = append(paths, p)
		}
		slices.Sort(paths)
		for _, p := range paths {
			w.str(p)
			w.str(c.Files[p])
		}
		w.strs(c.Deleted)
		w.i64(int64(c.SrcLines))
	}
	putFlatHeader(out, repoMagic, repoFormatVersion, stream, 0)
	return out
}

// flatDec reads the fixed-width stream of one entry. All reads are
// bounded by the arena offset (the stream may not reach into the arena)
// and all string references are bounds-checked against the arena, so a
// truncated or bit-flipped file can never index out of range. Returned
// strings alias the input buffer.
type flatDec struct {
	buf   []byte
	off   int
	end   int // arena offset: exclusive bound of the field stream
	arena []byte
	err   error
}

func (d *flatDec) fail() {
	if d.err == nil {
		d.err = errCorruptEntry
	}
}

func (d *flatDec) u8() byte {
	if d.err != nil || d.off >= d.end {
		d.fail()
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *flatDec) bool8() bool { return d.u8() != 0 }

func (d *flatDec) u32() uint32 {
	if d.err != nil || d.off+4 > d.end {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *flatDec) u64() uint64 {
	if d.err != nil || d.off+8 > d.end {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *flatDec) i64() int64   { return int64(d.u64()) }
func (d *flatDec) f64() float64 { return math.Float64frombits(d.u64()) }

// str resolves an arena reference into a zero-copy string view.
func (d *flatDec) str() string {
	off := d.u32()
	n := d.u32()
	if n == 0 || d.err != nil {
		return ""
	}
	if uint64(off)+uint64(n) > uint64(len(d.arena)) {
		d.fail()
		return ""
	}
	return unsafe.String(&d.arena[off], int(n))
}

// cnt decodes a slice or map length; n < 0 means it was nil. elemSize is
// the minimum encoded size of one element, bounding the length against
// the remaining stream bytes so a crafted count cannot force
// overallocation.
func (d *flatDec) cnt(elemSize int) int {
	v := d.u32()
	if v == 0 || d.err != nil {
		return -1
	}
	if uint64(v-1) > uint64(d.end-d.off)/uint64(elemSize) {
		d.fail()
		return -1
	}
	return int(v - 1)
}

// total decodes a plain (non-nilable) u32 element count with the same
// remaining-bytes bound as cnt.
func (d *flatDec) total(elemSize int) int {
	v := d.u32()
	if d.err != nil {
		return 0
	}
	if uint64(v) > uint64(d.end-d.off)/uint64(elemSize) {
		d.fail()
		return 0
	}
	return int(v)
}

func (d *flatDec) when() time.Time {
	ns := int64(d.u64())
	off := int(d.i64())
	t := time.Unix(0, ns)
	if off == 0 {
		return t.UTC()
	}
	return t.In(time.FixedZone("", off))
}

func (d *flatDec) ints() []int {
	n := d.cnt(8)
	if n < 0 || d.err != nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.i64())
	}
	return out
}

func (d *flatDec) strs() []string {
	n := d.cnt(8)
	if n < 0 || d.err != nil {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
	}
	return out
}

// flatSlabs hands out decoded elements from per-kind slabs sized by the
// encoded totals. Exhausting a slab (totals inconsistent with the actual
// counts) is corruption.
type flatSlabs struct {
	cols    []schema.Column
	strs    []string
	uniq    [][]string
	fks     []schema.ForeignKey
	deltas  []diff.Delta
	changes []diff.AttrChange
	notes   []schema.Note
}

// strsInto decodes a string slice out of the shared string-element slab.
func (d *flatDec) strsInto(sl *flatSlabs) []string {
	n := d.cnt(8)
	if n < 0 || d.err != nil {
		return nil
	}
	if n > len(sl.strs) {
		d.fail()
		return nil
	}
	out := sl.strs[:n:n]
	sl.strs = sl.strs[n:]
	for i := range out {
		out[i] = d.str()
	}
	return out
}

func (d *flatDec) table(t *schema.Table, sl *flatSlabs) {
	t.Name = d.str()
	if n := d.cnt(25); n >= 0 { // column: 3 refs + flags byte
		if n > len(sl.cols) {
			d.fail()
			return
		}
		t.Columns = sl.cols[:n:n]
		sl.cols = sl.cols[n:]
		for i := range t.Columns {
			c := &t.Columns[i]
			c.Name = d.str()
			c.Type = d.str()
			c.Default = d.str()
			f := d.u8()
			c.NotNull = f&1 != 0
			c.HasDefault = f&2 != 0
			c.AutoIncrement = f&4 != 0
			c.InPK = f&8 != 0
		}
	}
	t.PrimaryKey = d.strsInto(sl)
	if n := d.cnt(24); n >= 0 { // foreign key: 2 refs + 2 counts
		if n > len(sl.fks) {
			d.fail()
			return
		}
		t.ForeignKeys = sl.fks[:n:n]
		sl.fks = sl.fks[n:]
		for i := range t.ForeignKeys {
			fk := &t.ForeignKeys[i]
			fk.Name = d.str()
			fk.Columns = d.strsInto(sl)
			fk.RefTable = d.str()
			fk.RefColumns = d.strsInto(sl)
		}
	}
	if n := d.cnt(4); n >= 0 { // unique: one count
		if n > len(sl.uniq) {
			d.fail()
			return
		}
		t.Uniques = sl.uniq[:n:n]
		sl.uniq = sl.uniq[n:]
		for i := range t.Uniques {
			t.Uniques[i] = d.strsInto(sl)
		}
	}
}

func (d *flatDec) delta(sl *flatSlabs) *diff.Delta {
	if d.u8() == 0 {
		return nil
	}
	if len(sl.deltas) == 0 {
		d.fail()
		return nil
	}
	dl := &sl.deltas[0]
	sl.deltas = sl.deltas[1:]
	dl.TablesAdded = d.strsInto(sl)
	dl.TablesDropped = d.strsInto(sl)
	dl.NBornWithTable = int(d.i64())
	dl.NInjected = int(d.i64())
	dl.NDeletedWithTable = int(d.i64())
	dl.NEjected = int(d.i64())
	dl.NTypeChanged = int(d.i64())
	dl.NKeyChanged = int(d.i64())
	if n := d.cnt(24); n >= 0 { // attr change: 2 refs + kind
		if n > len(sl.changes) {
			d.fail()
			return dl
		}
		dl.Changes = sl.changes[:n:n]
		sl.changes = sl.changes[n:]
		for i := range dl.Changes {
			dl.Changes[i].Table = d.str()
			dl.Changes[i].Attr = d.str()
			dl.Changes[i].Kind = diff.ChangeKind(d.i64())
		}
	}
	return dl
}

func (d *flatDec) notesInto(sl *flatSlabs) []schema.Note {
	n := d.cnt(16) // note: stmt + msg ref
	if n < 0 || d.err != nil {
		return nil
	}
	if n > len(sl.notes) {
		d.fail()
		return nil
	}
	out := sl.notes[:n:n]
	sl.notes = sl.notes[n:]
	for i := range out {
		out[i].Stmt = int(d.i64())
		out[i].Msg = d.str()
	}
	return out
}

func (d *flatDec) history() *history.History {
	if d.u8() == 0 {
		return nil
	}
	h := &history.History{Project: d.str(), DDLPath: d.str()}
	// table: name ref + 4 counts
	npool := d.total(24)
	sl := flatSlabs{}
	if n := d.total(25); d.err == nil {
		sl.cols = make([]schema.Column, n)
	}
	if n := d.total(8); d.err == nil {
		sl.strs = make([]string, n)
	}
	if n := d.total(4); d.err == nil {
		sl.uniq = make([][]string, n)
	}
	if n := d.total(24); d.err == nil {
		sl.fks = make([]schema.ForeignKey, n)
	}
	if n := d.total(60); d.err == nil { // delta: 2 counts + 6 ints + count
		sl.deltas = make([]diff.Delta, n)
	}
	if n := d.total(24); d.err == nil {
		sl.changes = make([]diff.AttrChange, n)
	}
	if n := d.total(16); d.err == nil {
		sl.notes = make([]schema.Note, n)
	}
	if d.err != nil {
		return h
	}
	tstructs := make([]schema.Table, npool)
	pool := make([]*schema.Table, npool)
	for i := range tstructs {
		if d.err != nil {
			break
		}
		d.table(&tstructs[i], &sl)
		pool[i] = &tstructs[i]
	}
	// version: seq + time + 2 presence bytes + notes count
	if nv := d.cnt(30); nv >= 0 {
		h.Versions = make([]history.Version, nv)
		for i := range h.Versions {
			if d.err != nil {
				break
			}
			v := &h.Versions[i]
			v.Seq = int(d.i64())
			v.Time = d.when()
			if d.u8() != 0 {
				nt := d.total(4) // table reference: u32 pool index
				s := schema.NewWithCapacity(nt)
				for k := 0; k < nt && d.err == nil; k++ {
					idx := d.u32()
					if uint64(idx) >= uint64(len(pool)) {
						d.fail()
						break
					}
					s.AddTable(pool[idx])
				}
				// Decoded snapshots are published artifacts, sealed exactly
				// like the freshly computed ones they must be
				// indistinguishable from; the pool tables are shared across
				// versions, so sealing is also what routes any later
				// mutation through copy-on-write.
				s.Seal()
				v.Schema = s
			}
			v.Delta = d.delta(&sl)
			v.Notes = d.notesInto(&sl)
		}
	}
	h.Start = d.when()
	h.End = d.when()
	h.SchemaMonthly = d.ints()
	h.SourceMonthly = d.ints()
	h.ExpansionTotal = int(d.i64())
	h.MaintenanceTotal = int(d.i64())
	return h
}

func (d *flatDec) measures() metrics.Measures {
	var m metrics.Measures
	m.Project = d.str()
	m.PUPMonths = int(d.i64())
	m.HasSchema = d.bool8()
	m.BirthMonth = int(d.i64())
	m.BirthPct = d.f64()
	m.BirthVolumePct = d.f64()
	m.TopBandMonth = int(d.i64())
	m.TopBandPct = d.f64()
	m.IntervalBirthToTopPct = d.f64()
	m.IntervalTopToEndPct = d.f64()
	m.HasVault = d.bool8()
	m.ActiveGrowthMonths = int(d.i64())
	m.ActivePctGrowth = d.f64()
	m.ActivePctPUP = d.f64()
	m.TotalActivity = int(d.i64())
	m.Expansion = int(d.i64())
	m.Maintenance = int(d.i64())
	m.TablesAtBirth = int(d.i64())
	m.AttrsAtBirth = int(d.i64())
	m.TablesAtEnd = int(d.i64())
	m.AttrsAtEnd = int(d.i64())
	if n := d.cnt(8); n >= 0 {
		m.Vector = make([]float64, n)
		for i := range m.Vector {
			m.Vector[i] = d.f64()
		}
	}
	return m
}

// flatOpen checks the header of a flat image against its kind's magic
// and format version and returns a decoder positioned at the field
// stream. The tag byte, data[24], is the caller's to check.
func flatOpen(data []byte, magic [4]byte, version uint32) (*flatDec, error) {
	if len(data) < flatHeaderSize || string(data[0:4]) != string(magic[:]) {
		return nil, errCorruptEntry
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != version {
		return nil, fmt.Errorf("%w: format version %d", errCorruptEntry, v)
	}
	arenaOff := binary.LittleEndian.Uint64(data[8:16])
	arenaLen := binary.LittleEndian.Uint64(data[16:24])
	if arenaOff < flatHeaderSize || arenaOff > uint64(len(data)) || arenaLen != uint64(len(data))-arenaOff {
		return nil, fmt.Errorf("%w: arena bounds [%d,+%d) outside %d-byte image", errCorruptEntry, arenaOff, arenaLen, len(data))
	}
	for _, b := range data[25:32] {
		if b != 0 {
			return nil, fmt.Errorf("%w: nonzero reserved header byte", errCorruptEntry)
		}
	}
	return &flatDec{buf: data, off: flatHeaderSize, end: int(arenaOff), arena: data[arenaOff:]}, nil
}

// close reports the first decode error, or trailing stream bytes: the
// stream must end exactly at the arena.
func (d *flatDec) close() error {
	if d.err != nil {
		return d.err
	}
	if d.off != d.end {
		return fmt.Errorf("%w: %d trailing stream bytes", errCorruptEntry, d.end-d.off)
	}
	return nil
}

// DecodeResult deserializes EncodeResult bytes (and so a cache entry's
// payload), failing on any truncation, trailing garbage, version
// mismatch, or magic/bounds violation. Strings in the returned result
// alias data; the caller must not mutate the buffer while the result is
// reachable.
func DecodeResult(data []byte) (*CachedResult, error) {
	d, err := flatOpen(data, flatMagic, cacheFormatVersion)
	if err != nil {
		return nil, err
	}
	dia := sqlddl.DialectID(data[24])
	if !dia.Valid() {
		return nil, fmt.Errorf("%w: dialect tag %d", errCorruptEntry, data[24])
	}
	r := &CachedResult{Fingerprint: d.str(), Project: d.str(), History: d.history()}
	if r.History != nil {
		r.History.Dialect = dia
	} else if dia != sqlddl.DialectGeneric {
		// A dialect tag with no history to hang it on is not a state the
		// encoder produces.
		return nil, fmt.Errorf("%w: dialect tag %d on history-less entry", errCorruptEntry, data[24])
	}
	r.Measures = d.measures()
	if err := d.close(); err != nil {
		return nil, err
	}
	return r, nil
}

// DecodeRepo deserializes EncodeRepo bytes, failing on any truncation,
// trailing garbage, version mismatch, a nonzero tag, or a magic/bounds
// violation. Strings in the returned repo alias data, as DecodeResult's
// do. It does not re-validate the repo: the store only persists snapshots
// that already passed vcs.Repo.Validate at submission time.
func DecodeRepo(data []byte) (*vcs.Repo, error) {
	d, err := flatOpen(data, repoMagic, repoFormatVersion)
	if err != nil {
		return nil, err
	}
	if data[24] != 0 {
		return nil, fmt.Errorf("%w: tag %d on a snapshot", errCorruptEntry, data[24])
	}
	r := &vcs.Repo{Name: d.str()}
	// commit: id + time + message + files count + deleted count + src lines
	if n := d.cnt(8 + 16 + 8 + 4 + 4 + 8); n >= 0 {
		r.Commits = make([]vcs.Commit, n)
		for i := range r.Commits {
			if d.err != nil {
				break
			}
			c := &r.Commits[i]
			c.ID = d.str()
			c.Time = d.when()
			c.Message = d.str()
			if nf := d.cnt(16); nf >= 0 { // file: path and content refs
				c.Files = make(map[string]string, nf)
				for j := 0; j < nf; j++ {
					p := d.str()
					c.Files[p] = d.str()
				}
			}
			c.Deleted = d.strs()
			c.SrcLines = int(d.i64())
		}
	}
	if err := d.close(); err != nil {
		return nil, err
	}
	return r, nil
}

package vcs

// One-pass decoder for the repository wire format. Every JSON history —
// a POST /v1/projects body, a batch NDJSON line, a repo or corpus file —
// enters the system through Reader, which validates and decodes in a
// single left-to-right scan with no reflection.
//
// The specification is encoding/json: for every input, DecodeJSON must
// accept exactly what json.Unmarshal into a Repo accepts and produce a
// reflect.DeepEqual value. That includes its less obvious rules —
// case-insensitive key matching, unknown keys skipped but syntax-checked,
// null as a no-op on scalars and a reset on slices, maps and pointers,
// duplicate keys decoding over the earlier value (slices in place, maps
// merged), U+FFFD for invalid UTF-8 and lone surrogates, and time.Time's
// own UnmarshalJSON on the raw literal. encoding/json stays in the tests
// only, as the oracle (FuzzDecodeRepoJSON, TestDecodeJSONMatchesReflection).
//
// Two rules are load-bearing. Decoded strings never alias the input or a
// shared buffer: escapes are resolved into a pooled scratch buffer and
// every string is a fresh copy, so a retained project name or commit ID
// never pins a request body, nor changes when the batch scanner reuses its
// line buffer. And nesting depth is
// bounded like encoding/json's, so a body of 32 MiB of '[' is a decode
// error, not a stack overflow.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit: the 10001st unclosed
// bracket is an error.
const maxDepth = 10000

// Reader is a single-pass JSON reader over an in-memory document. Its
// methods decode the next value in place; the first error is sticky —
// every later call is a no-op and End returns it. Object members are
// walked with NextField and arrays decoded with Slice:
//
//	if r.Object() {
//		for f, ok := r.NextField(names); ok; f, ok = r.NextField(names) {
//			switch f { ... default: r.Skip() }
//		}
//	}
type Reader struct {
	data  []byte
	pos   int
	depth int
	// comma is set when a value ends: the next member or element of the
	// enclosing container must be preceded by ','.
	comma   bool
	err     error
	scratch *[]byte // pooled unescape buffer, taken on first use
}

// NewReader returns a Reader positioned at the start of data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// scratchPool recycles unescape buffers; buffers grown past
// maxPooledScratch are left to the collector.
var scratchPool = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

const maxPooledScratch = 1 << 20

// End checks that only whitespace follows the decoded value, releases
// the scratch buffer and returns the first error met.
func (r *Reader) End() error {
	if r.err == nil && r.skipSpace() && r.pos < len(r.data) {
		r.fail("invalid character " + quoteByte(r.data[r.pos]) + " after top-level value")
	}
	if r.scratch != nil {
		if cap(*r.scratch) <= maxPooledScratch {
			scratchPool.Put(r.scratch)
		}
		r.scratch = nil
	}
	return r.err
}

func (r *Reader) fail(msg string) {
	if r.err == nil {
		r.err = errors.New(msg + " at offset " + strconv.Itoa(r.pos))
	}
}

// skipSpace advances over JSON whitespace and reports whether the reader
// is still error-free.
func (r *Reader) skipSpace() bool {
	for r.pos < len(r.data) {
		switch r.data[r.pos] {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return r.err == nil
		}
	}
	return r.err == nil
}

// peek returns the first byte of the next value, or 0 at the end of the
// input or after an error.
func (r *Reader) peek() byte {
	if !r.skipSpace() || r.pos == len(r.data) {
		return 0
	}
	return r.data[r.pos]
}

// mismatch fails on a value that is well-formed but of the wrong kind for
// its destination (or is not the start of a value at all).
func (r *Reader) mismatch(want string) {
	if r.err != nil {
		return
	}
	if r.pos == len(r.data) {
		r.fail("unexpected end of JSON input")
		return
	}
	var found string
	switch c := r.data[r.pos]; {
	case c == '{':
		found = "object"
	case c == '[':
		found = "array"
	case c == '"':
		found = "string"
	case c == 't' || c == 'f':
		found = "boolean"
	case c == '-' || '0' <= c && c <= '9':
		found = "number"
	default:
		r.fail("invalid character " + quoteByte(c) + " looking for beginning of value")
		return
	}
	r.fail("cannot decode " + found + " as " + want)
}

func quoteByte(c byte) string {
	return strconv.QuoteRune(rune(c))
}

// Null consumes a null literal and reports whether the next value was one.
func (r *Reader) Null() bool {
	if r.peek() != 'n' {
		return false
	}
	r.literal("null")
	return r.err == nil
}

// Object consumes the '{' of an object and reports true. A null is
// consumed and reports false (it leaves the destination untouched, as
// encoding/json does for structs); any other value is an error.
func (r *Reader) Object() bool { return r.open('{', "object") }

// array consumes the '[' of an array and reports true, like Object.
func (r *Reader) array() bool { return r.open('[', "array") }

func (r *Reader) open(c byte, kind string) bool {
	switch r.peek() {
	case c:
		r.depth++
		if r.depth > maxDepth {
			r.fail("exceeded max depth")
			return false
		}
		r.pos++
		r.comma = false
		return true
	case 'n':
		r.literal("null")
	default:
		r.mismatch(kind)
	}
	return false
}

// next steps over the ',' before the next member or element, or consumes
// the container's closing byte and reports false.
func (r *Reader) next(closing byte) bool {
	if !r.skipSpace() {
		return false
	}
	if r.pos == len(r.data) {
		r.fail("unexpected end of JSON input")
		return false
	}
	c := r.data[r.pos]
	if c == closing {
		r.pos++
		r.depth--
		r.comma = true
		return false
	}
	if r.comma {
		if c != ',' {
			r.fail("invalid character " + quoteByte(c) + " after " + containerItem(closing))
			return false
		}
		r.pos++
		r.comma = false
	}
	return true
}

func containerItem(closing byte) string {
	if closing == '}' {
		return "object member"
	}
	return "array element"
}

// nextElem reports whether the current array has another element, which
// the caller must then consume.
func (r *Reader) nextElem() bool { return r.next(']') }

// nextKey reads the current object's next member key and its ':', or
// consumes the closing '}' and reports false. The key is unescaped and
// valid only until the next call on r; the caller must consume the value.
func (r *Reader) nextKey() ([]byte, bool) {
	if !r.next('}') || !r.skipSpace() {
		return nil, false
	}
	if r.pos == len(r.data) {
		r.fail("unexpected end of JSON input")
		return nil, false
	}
	if c := r.data[r.pos]; c != '"' {
		r.fail("invalid character " + quoteByte(c) + " looking for beginning of object key string")
		return nil, false
	}
	key := r.str()
	if !r.skipSpace() {
		return nil, false
	}
	if r.pos == len(r.data) || r.data[r.pos] != ':' {
		r.fail("expected ':' after object key")
		return nil, false
	}
	r.pos++
	return key, true
}

// NextField is nextKey resolved against a struct's field names under
// encoding/json's rules: an exact match, else a case-insensitive one
// (Unicode simple folding). An unknown key yields "".
func (r *Reader) NextField(names []string) (string, bool) {
	key, ok := r.nextKey()
	if !ok {
		return "", false
	}
	for _, n := range names {
		if string(key) == n {
			return n, true
		}
	}
	for _, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return n, true
		}
	}
	return "", true
}

// String decodes a string into *dst as a fresh copy; null leaves *dst
// unchanged.
func (r *Reader) String(dst *string) {
	switch r.peek() {
	case '"':
		if s := r.str(); r.err == nil {
			*dst = string(s)
		}
	case 'n':
		r.literal("null")
	default:
		r.mismatch("string")
	}
}

// integer decodes an integer into *dst; null leaves *dst unchanged. A
// fraction, an exponent or a value outside int's range is an error.
func (r *Reader) integer(dst *int) {
	switch c := r.peek(); {
	case c == '-' || '0' <= c && c <= '9':
		start := r.pos
		lit := r.number()
		if r.err != nil {
			return
		}
		n, ok := parseInt(lit)
		if !ok {
			r.pos = start
			r.fail("cannot decode number " + string(lit) + " as int")
			return
		}
		*dst = n
	case c == 'n':
		r.literal("null")
	default:
		r.mismatch("number")
	}
}

// parseInt is strconv.ParseInt(lit, 10, 64) plus int's range check,
// without the string conversion. lit is a grammatical JSON number.
func parseInt(lit []byte) (int, bool) {
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	var u uint64
	for _, c := range lit {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if u > (limit-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	if neg {
		return -int(u), true
	}
	return int(u), true
}

// raw skips the next value, syntax-checked, and returns its bytes (a view
// into the input, valid while the input is).
func (r *Reader) raw() []byte {
	if !r.skipSpace() {
		return nil
	}
	start := r.pos
	r.Skip()
	if r.err != nil {
		return nil
	}
	return r.data[start:r.pos]
}

// Skip consumes the next value, checking its syntax and nesting depth.
func (r *Reader) Skip() {
	switch c := r.peek(); {
	case c == '{':
		if r.Object() {
			for _, ok := r.nextKey(); ok; _, ok = r.nextKey() {
				r.Skip()
			}
		}
	case c == '[':
		if r.array() {
			for r.nextElem() {
				r.Skip()
			}
		}
	case c == '"':
		r.str()
	case c == 't':
		r.literal("true")
	case c == 'f':
		r.literal("false")
	case c == 'n':
		r.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		r.number()
	default:
		r.mismatch("value")
	}
}

func (r *Reader) literal(word string) {
	if !bytes.HasPrefix(r.data[r.pos:], []byte(word)) {
		for i := 0; i < len(word) && r.pos < len(r.data) && r.data[r.pos] == word[i]; i++ {
			r.pos++
		}
		if r.pos == len(r.data) {
			r.fail("unexpected end of JSON input")
		} else {
			r.fail("invalid character " + quoteByte(r.data[r.pos]) + " in literal " + word)
		}
		return
	}
	r.pos += len(word)
	r.comma = true
}

// number consumes a number under JSON's strict grammar
// (-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?) and returns it.
func (r *Reader) number() []byte {
	d, i := r.data, r.pos
	digits := func() bool {
		j := i
		for i < len(d) && '0' <= d[i] && d[i] <= '9' {
			i++
		}
		return i > j
	}
	if d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case !digits():
		r.failNumber(i)
		return nil
	}
	if i < len(d) && d[i] == '.' {
		i++
		if !digits() {
			r.failNumber(i)
			return nil
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if !digits() {
			r.failNumber(i)
			return nil
		}
	}
	lit := d[r.pos:i]
	r.pos = i
	r.comma = true
	return lit
}

func (r *Reader) failNumber(i int) {
	r.pos = i
	if i == len(r.data) {
		r.fail("unexpected end of JSON input")
		return
	}
	r.fail("invalid character " + quoteByte(r.data[i]) + " in numeric literal")
}

// plain marks the bytes a string literal may carry verbatim: printable
// ASCII other than '"' and '\\'.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// plainRun returns the index of the first byte at or after i that is not
// plain, testing eight bytes per step: a word is all plain unless some
// byte is '"', '\\', below 0x20 or at least 0x80 (the classic
// has-zero-byte and has-less-than bit tricks).
func plainRun(d []byte, i int) int {
	const lsb, msb = 0x0101010101010101, 0x8080808080808080
	for ; i+8 <= len(d); i += 8 {
		w := binary.LittleEndian.Uint64(d[i:])
		q := w ^ (lsb * '"')
		b := w ^ (lsb * '\\')
		if ((q-lsb)&^q|(b-lsb)&^b|(w-lsb*0x20)|w)&msb != 0 {
			break
		}
	}
	for i < len(d) && plain[d[i]] {
		i++
	}
	return i
}

// str consumes the string literal at r.pos and returns its unescaped
// content. A literal with no escapes and valid UTF-8 is returned as a view
// into the input, any other in the scratch buffer; either way the bytes
// are valid only until the next call on r, and a caller that keeps them
// copies them.
func (r *Reader) str() []byte {
	d := r.data
	start := r.pos + 1
	i := plainRun(d, start)
	for i < len(d) && d[i] >= utf8.RuneSelf {
		rr, size := utf8.DecodeRune(d[i:])
		if rr == utf8.RuneError && size == 1 {
			break
		}
		i = plainRun(d, i+size)
	}
	if i < len(d) && d[i] == '"' {
		r.pos = i + 1
		r.comma = true
		return d[start:i]
	}
	return r.unescape(start, i)
}

// unescape finishes str's slow path: the literal opened at start-1 and
// d[start:i] is already known plain. It follows encoding/json's unquote:
// short escapes, \u escapes with surrogate pairs combined, a lone
// surrogate or an invalid UTF-8 byte each becoming U+FFFD.
func (r *Reader) unescape(start, i int) []byte {
	if r.scratch == nil {
		r.scratch = scratchPool.Get().(*[]byte)
	}
	d := r.data
	buf := append((*r.scratch)[:0], d[start:i]...)
	defer func() { *r.scratch = buf[:0] }()
	for i < len(d) {
		c := d[i]
		switch {
		case plain[c]:
			j := plainRun(d, i+1)
			buf = append(buf, d[i:j]...)
			i = j
		case c == '"':
			r.pos = i + 1
			r.comma = true
			return buf
		case c == '\\':
			if i+1 == len(d) {
				r.pos = len(d)
				r.fail("unexpected end of JSON input")
				return nil
			}
			switch e := d[i+1]; e {
			case '"', '\\', '/':
				buf = append(buf, e)
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				rr := hex4(d[i:])
				if rr < 0 {
					r.pos = i
					r.fail(`invalid \u escape in string literal`)
					return nil
				}
				i += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, hex4(d[i:])); dec != unicode.ReplacementChar {
						rr = dec
						i += 6
					} else {
						rr = unicode.ReplacementChar
					}
				}
				buf = utf8.AppendRune(buf, rr)
				continue
			default:
				r.pos = i + 1
				r.fail("invalid character " + quoteByte(e) + " in string escape code")
				return nil
			}
			i += 2
		case c < 0x20:
			r.pos = i
			r.fail("invalid character " + quoteByte(c) + " in string literal")
			return nil
		default:
			rr, size := utf8.DecodeRune(d[i:])
			if rr == utf8.RuneError && size == 1 {
				buf = append(buf, "�"...)
			} else {
				buf = append(buf, d[i:i+size]...)
			}
			i += size
		}
	}
	r.pos = len(d)
	r.fail("unexpected end of JSON input")
	return nil
}

// hex4 decodes the \uXXXX escape at the start of s, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var v rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		v = v<<4 | rune(c)
	}
	return v
}

// Slice decodes an array into *s with encoding/json's slice rules: null
// sets nil, [] an empty non-nil slice, and elements are decoded by elem in
// place over what *s already holds (so a duplicate key decodes over the
// earlier elements), then the slice is cut to the elements read.
func Slice[T any](r *Reader, s *[]T, elem func(*T)) {
	if r.Null() {
		*s = nil
		return
	}
	if !r.array() {
		return
	}
	v := *s
	i := 0
	for ; r.nextElem(); i++ {
		if i == len(v) {
			if i < cap(v) {
				v = v[:i+1]
			} else {
				var zero T
				v = append(v, zero)
			}
		}
		elem(&v[i])
	}
	if i == 0 {
		v = []T{}
	}
	*s = v[:i]
}

var (
	repoFields   = []string{"name", "commits"}
	commitFields = []string{"id", "time", "message", "files", "deleted", "src_lines"}
)

// Repo decodes a Repo object into dst, over whatever dst already holds;
// null leaves it unchanged.
func (r *Reader) Repo(dst *Repo) {
	if !r.Object() {
		return
	}
	for f, ok := r.NextField(repoFields); ok; f, ok = r.NextField(repoFields) {
		switch f {
		case "name":
			r.String(&dst.Name)
		case "commits":
			Slice(r, &dst.Commits, r.commit)
		default:
			r.Skip()
		}
	}
}

func (r *Reader) commit(c *Commit) {
	if !r.Object() {
		return
	}
	for f, ok := r.NextField(commitFields); ok; f, ok = r.NextField(commitFields) {
		switch f {
		case "id":
			r.String(&c.ID)
		case "time":
			start := r.pos
			if raw := r.raw(); r.err == nil {
				if err := c.Time.UnmarshalJSON(raw); err != nil {
					r.pos = start
					r.fail(err.Error())
				}
			}
		case "message":
			r.String(&c.Message)
		case "files":
			r.stringMap(&c.Files)
		case "deleted":
			Slice(r, &c.Deleted, r.String)
		case "src_lines":
			r.integer(&c.SrcLines)
		default:
			r.Skip()
		}
	}
}

// stringMap decodes an object of strings into *m, merging into an
// existing map; null sets nil, and a null member value stores "".
func (r *Reader) stringMap(m *map[string]string) {
	if r.Null() {
		*m = nil
		return
	}
	if !r.Object() {
		return
	}
	if *m == nil {
		*m = make(map[string]string)
	}
	for key, ok := r.nextKey(); ok; key, ok = r.nextKey() {
		k := string(key)
		var v string
		r.String(&v)
		(*m)[k] = v
	}
}

// DecodeJSON decodes one Repo from its JSON wire form, accepting and
// producing exactly what json.Unmarshal would; only whitespace may follow
// the value. It does not call Validate.
func DecodeJSON(data []byte) (*Repo, error) {
	r := Reader{data: data}
	repo := new(Repo)
	r.Repo(repo)
	if err := r.End(); err != nil {
		return nil, err
	}
	return repo, nil
}

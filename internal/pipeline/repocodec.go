package pipeline

import (
	"fmt"
	"sort"

	"schemaevo/internal/vcs"
)

// Source snapshots (vcs.Repo) are persisted by the result store alongside
// their analysis results, with the same hand-rolled binary conventions as
// the cache-entry codec: length-prefixed little-endian, nil-preserving
// counts, (UnixNano, zone offset) times. Map entries are written in
// sorted-key order so encoding is deterministic — EncodeRepo of equal
// repos yields equal bytes, which the store's content addressing and the
// differential tests both rely on.

// repoMagic guards against feeding arbitrary bytes to DecodeRepo.
var repoMagic = [4]byte{'S', 'E', 'V', 'S'}

// repoCodecVersion identifies the source-snapshot layout; bump it whenever
// vcs.Repo or the encoding changes shape.
const repoCodecVersion = 1

// EncodeRepo serializes a repository snapshot. The bytes round-trip
// exactly through DecodeRepo up to time-zone names (only the UTC offset is
// kept, matching a JSON RFC 3339 round trip), which is invisible to the
// analysis: fingerprints and results of the decoded repo are identical to
// the original's.
func EncodeRepo(r *vcs.Repo) []byte {
	// A sizing pass first, so the snapshot is built in one allocation of
	// exactly its length. Every integer and length prefix is 8 bytes.
	n, maxFiles := len(repoMagic)+8+8+len(r.Name)+8, 0
	for i := range r.Commits {
		c := &r.Commits[i]
		n += 8 + len(c.ID) + 16 + 8 + len(c.Message) + 8 + 8 + 8
		for p, body := range c.Files {
			n += 16 + len(p) + len(body)
		}
		for _, p := range c.Deleted {
			n += 8 + len(p)
		}
		maxFiles = max(maxFiles, len(c.Files))
	}
	w := &enc{buf: make([]byte, 0, n)}
	w.bytes(repoMagic[:])
	w.int(repoCodecVersion)
	w.str(r.Name)
	w.count(len(r.Commits), r.Commits == nil)
	paths := make([]string, 0, maxFiles)
	for i := range r.Commits {
		c := &r.Commits[i]
		w.str(c.ID)
		w.when(c.Time)
		w.str(c.Message)
		w.count(len(c.Files), c.Files == nil)
		paths = paths[:0]
		for p := range c.Files {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range paths {
			w.str(p)
			w.str(c.Files[p])
		}
		encStrings(w, c.Deleted)
		w.int(c.SrcLines)
	}
	return w.buf
}

// DecodeRepo deserializes EncodeRepo bytes, failing on truncation,
// trailing garbage, or a magic/version mismatch. It does not re-validate
// the repo: the store only persists snapshots that already passed
// vcs.Repo.Validate at submission time.
func DecodeRepo(data []byte) (*vcs.Repo, error) {
	if len(data) < len(repoMagic) || string(data[:len(repoMagic)]) != string(repoMagic[:]) {
		return nil, errCorruptEntry
	}
	d := &dec{buf: data, off: len(repoMagic)}
	if d.int() != repoCodecVersion {
		return nil, errCorruptEntry
	}
	r := &vcs.Repo{Name: d.str()}
	// commit: id + time + message + files count + deleted count + src lines
	if n := d.count(8 + 16 + 8 + 8 + 8 + 8); n >= 0 {
		r.Commits = make([]vcs.Commit, n)
		for i := range r.Commits {
			if d.err != nil {
				break
			}
			c := &r.Commits[i]
			c.ID = d.str()
			c.Time = d.when()
			c.Message = d.str()
			if nf := d.count(16); nf >= 0 { // file: path + content prefixes
				c.Files = make(map[string]string, nf)
				for j := 0; j < nf; j++ {
					p := d.str()
					c.Files[p] = d.str()
				}
			}
			c.Deleted = decStrings(d)
			c.SrcLines = d.int()
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", errCorruptEntry, len(data)-d.off)
	}
	return r, nil
}

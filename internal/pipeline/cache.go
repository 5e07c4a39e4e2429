package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"time"
	"unsafe"

	"schemaevo/internal/faultinject"
	"schemaevo/internal/history"
	"schemaevo/internal/metrics"
	"schemaevo/internal/sqlddl/dialect"
	"schemaevo/internal/telemetry"
	"schemaevo/internal/vcs"
)

// cacheFormatVersion is bumped whenever the entry layout or the meaning of
// the memoized computation changes; entries with another version are
// treated as misses. Version 2 switched the entry body from JSON to a
// binary codec; version 3 added the whole-file CRC-32C integrity trailer;
// version 4 replaced the decode-loop layout with the flat, zero-copy
// format in flatcodec.go (string arena + deduplicated table pool);
// version 5 widened the flat header to 32 bytes with the history's SQL
// dialect tag and made the dialect part of the fingerprint; version 6
// keeps quoted identifiers quoted in default, CHECK and type-argument
// text, so a version-5 entry no longer matches a cold parse. An entry of
// another version is stale: load drops it as a plain miss.
const cacheFormatVersion = 6

// fingerprintRevision is hashed into every fingerprint and is bumped only
// when the hashed bytes change meaning. It is kept apart from
// cacheFormatVersion because a fingerprint is also a served project's ID:
// a format bump recomputes stale entries without re-keying every project.
const fingerprintRevision = 5

// Fingerprint returns a content hash of everything the analysis pipeline
// reads from a repository: the repo name, every commit's timestamp and
// source-line count, the content of every DDL snapshot, and DDL deletions.
// Two repos with equal fingerprints yield byte-identical history and
// measures, so the fingerprint is a sound memoization key. Non-DDL file
// contents are deliberately excluded: the pipeline only consumes their
// per-commit SrcLines aggregate, which is hashed.
//
// Fingerprint hashes under the default (generic) dialect; it equals
// FingerprintDialect(r, "").
func Fingerprint(r *vcs.Repo) string { return FingerprintDialect(r, "") }

// FingerprintDialect is Fingerprint under a dialect selection. The
// dialect changes which grammar parses the hashed DDL content, so it is
// part of the memoization key: "" and "generic" collapse to the same
// (untagged) key, every other value — "auto" included — is hashed
// verbatim. "auto" names a selection rule rather than one grammar:
// detection is a pure function of the first surviving DDL snapshot,
// which is hashed, and of the detection rules, whose dialect.Revision is
// hashed too, so equal auto-fingerprints resolve to the same dialect.
func FingerprintDialect(r *vcs.Repo, sel string) string {
	if sel == "generic" {
		sel = ""
	}
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeStr := func(s string) {
		writeInt(int64(len(s)))
		// sha256 neither keeps nor writes its input, so the string's own
		// bytes can be hashed without the copy []byte(s) would make.
		h.Write(unsafe.Slice(unsafe.StringData(s), len(s)))
	}
	writeInt(fingerprintRevision)
	writeStr(sel)
	if sel == "auto" {
		writeInt(dialect.Revision)
	}
	writeStr(r.Name)
	writeInt(int64(len(r.Commits)))
	var paths, deleted []string // reused across commits
	for _, c := range r.Commits {
		writeInt(c.Time.UnixNano())
		writeInt(int64(c.SrcLines))
		paths = paths[:0]
		for p := range c.Files {
			if vcs.IsDDLPath(p) {
				paths = append(paths, p)
			}
		}
		sort.Strings(paths)
		writeInt(int64(len(paths)))
		for _, p := range paths {
			writeStr(p)
			writeStr(c.Files[p])
		}
		deleted = deleted[:0]
		for _, p := range c.Deleted {
			if vcs.IsDDLPath(p) {
				deleted = append(deleted, p)
			}
		}
		sort.Strings(deleted)
		writeInt(int64(len(deleted)))
		for _, p := range deleted {
			writeStr(p)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CachedResult is one project's memoized analysis, keyed by its content
// fingerprint: the reconstructed history and the computed measures.
// Labels are cheap and scheme-dependent, so they are always recomputed.
// It is both the disk cache's entry, written with EncodeResult
// (flatcodec.go) and sealed with a CRC-32C trailer, and the unit the
// analysis service's result store holds, in the same bytes.
type CachedResult struct {
	Fingerprint string
	Project     string
	History     *history.History
	Measures    metrics.Measures
}

// corruptDirName is the subdirectory entries failing their integrity
// check are moved to, preserved for inspection instead of deleted.
const corruptDirName = "corrupt"

// Quarantined entries are kept for inspection, not forever: the reaper
// deletes files older than corruptMaxAge and, beyond that, the oldest
// files past corruptMaxFiles. Bounds the directory on long-lived
// deployments where bit-rot trickles in indefinitely.
const (
	corruptMaxFiles = 32
	corruptMaxAge   = 7 * 24 * time.Hour
)

// diskCache memoizes analysis results under a directory, one file per
// repository fingerprint. All methods are safe for concurrent use:
// files are written atomically (temp + rename) and the counters are
// atomics. Transient filesystem faults are retried with backoff; entries
// that fail their checksum are quarantined to <dir>/corrupt/ and read as
// misses, so a crash mid-write or bit-rot can never surface a wrong
// result. A nil *diskCache is a valid no-op cache.
type diskCache struct {
	dir   string
	fault *faultinject.Injector
	cnt   *telemetry.Counters // chained to the collector's; holds the run's Stats
	ctx   context.Context
	retry func() // the withRetry tap, counting retries
}

// openCache prepares a cache rooted at dir, creating it if needed. fault
// optionally injects chaos at the cache.read/cache.write sites; tel
// optionally receives the cache counters; ctx bounds injected delays.
func openCache(dir string, fault *faultinject.Injector, tel *telemetry.Collector, ctx context.Context) (*diskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pipeline: cache dir: %w", err)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	c := &diskCache{dir: dir, fault: fault, cnt: telemetry.NewCounters(tel.Counters()), ctx: ctx}
	c.retry = func() { c.cnt.Add(telemetry.CacheRetries, 1) }
	// A restart is the natural moment to age out quarantined entries
	// left by previous runs.
	c.reapCorrupt()
	return c, nil
}

func (c *diskCache) path(fingerprint string) string {
	return filepath.Join(c.dir, fingerprint+".sevc")
}

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms that matter.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// seal appends the CRC-32C of data, producing the on-disk file image.
func seal(data []byte) []byte {
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc32.Checksum(data, crcTable))
	return append(data, trailer[:]...)
}

// unseal verifies and strips the CRC-32C trailer.
func unseal(data []byte) ([]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("%w: %d bytes, shorter than the checksum trailer", errCorruptEntry, len(data))
	}
	payload, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: checksum mismatch", errCorruptEntry)
	}
	return payload, nil
}

// load returns the memoized entry for the fingerprint, or nil on a miss.
// Unreadable files are retried, then count as misses plus cache errors;
// entries failing the checksum or decode are quarantined for inspection
// and count as misses — never as failures: the pipeline just recomputes.
// A sound entry of another format version is stale, not corrupt: it is
// removed and counts as a plain miss.
// A hit's strings are views into the buffer read here (see flatcodec.go).
func (c *diskCache) load(fingerprint string) *CachedResult {
	if c == nil {
		return nil
	}
	var data []byte
	err := withRetry(retryAttempts, retryBackoff, c.retry, func() error {
		switch c.fault.At("cache.read", fingerprint) {
		case faultinject.KindErr:
			return &faultinject.Error{Site: "cache.read", Key: fingerprint}
		case faultinject.KindDelay:
			c.fault.Sleep(c.ctx)
		}
		var rerr error
		data, rerr = os.ReadFile(c.path(fingerprint))
		return rerr
	})
	if err != nil {
		if !os.IsNotExist(err) {
			c.cnt.Add(telemetry.CacheErrors, 1)
		}
		c.cnt.Add(telemetry.CacheMisses, 1)
		return nil
	}
	if c.fault.At("cache.read.bytes", fingerprint) == faultinject.KindCorrupt {
		// data is this load's private copy, so mangling it leaves the
		// file intact for quarantine to preserve.
		c.fault.Mangle(data, fingerprint)
	}
	payload, err := unseal(data)
	if err == nil && len(payload) >= 8 && string(payload[0:4]) == string(flatMagic[:]) &&
		binary.LittleEndian.Uint32(payload[4:8]) != cacheFormatVersion {
		os.Remove(c.path(fingerprint))
		c.cnt.Add(telemetry.CacheMisses, 1)
		return nil
	}
	var e *CachedResult
	if err == nil {
		e, err = DecodeResult(payload)
	}
	if err != nil || e.Fingerprint != fingerprint {
		c.quarantine(fingerprint)
		c.cnt.Add(telemetry.CacheErrors, 1)
		c.cnt.Add(telemetry.CacheMisses, 1)
		return nil
	}
	c.cnt.Add(telemetry.CacheHits, 1)
	c.cnt.Add(telemetry.CacheBytesRead, int64(len(data)))
	return e
}

// quarantine moves an entry that failed its integrity check into
// <dir>/corrupt/ so it can be inspected; if the move fails the entry is
// deleted, because a poisoned file must never be re-read as a hit.
// CacheCorrupt counts the entry as both corrupt and quarantined.
func (c *diskCache) quarantine(fingerprint string) {
	c.cnt.Add(telemetry.CacheCorrupt, 1)
	src := c.path(fingerprint)
	dir := filepath.Join(c.dir, corruptDirName)
	if os.MkdirAll(dir, 0o755) == nil {
		if os.Rename(src, filepath.Join(dir, fingerprint+".sevc")) == nil {
			c.reapCorrupt()
			return
		}
	}
	os.Remove(src)
}

// reapCorrupt enforces the quarantine retention policy: delete files in
// <dir>/corrupt/ older than corruptMaxAge, then the oldest files beyond
// corruptMaxFiles. Every deletion is counted via telemetry; failures are
// ignored — retention is hygiene, not correctness, and the next pass
// retries. Concurrent reapers at worst race on os.Remove, which is
// idempotent (only successful removals are counted).
func (c *diskCache) reapCorrupt() {
	dir := filepath.Join(c.dir, corruptDirName)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	type aged struct {
		name string
		mod  time.Time
	}
	var files []aged
	now := time.Now()
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		if now.Sub(info.ModTime()) > corruptMaxAge {
			if os.Remove(filepath.Join(dir, e.Name())) == nil {
				c.cnt.Add(telemetry.CacheReaped, 1)
			}
			continue
		}
		files = append(files, aged{e.Name(), info.ModTime()})
	}
	if len(files) <= corruptMaxFiles {
		return
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod.Before(files[j].mod) })
	for _, f := range files[:len(files)-corruptMaxFiles] {
		if os.Remove(filepath.Join(dir, f.name)) == nil {
			c.cnt.Add(telemetry.CacheReaped, 1)
		}
	}
}

// store persists an entry; transient failures are retried, remaining
// failures are counted but non-fatal (the cache is an accelerator, not a
// source of truth).
func (c *diskCache) store(fingerprint, project string, h *history.History, m metrics.Measures) {
	if c == nil {
		return
	}
	// The file image is built and sealed in the encoder's scratch and
	// written straight from it; nothing here outlives the scratch.
	sc := getFlatScratch()
	defer sc.release()
	data := seal(sc.encode(&CachedResult{Fingerprint: fingerprint, Project: project, History: h, Measures: m}))
	if c.fault.At("cache.write.bytes", fingerprint) == faultinject.KindCorrupt {
		c.fault.Mangle(data, fingerprint)
	}
	err := withRetry(retryAttempts, retryBackoff, c.retry, func() error {
		switch c.fault.At("cache.write", fingerprint) {
		case faultinject.KindErr:
			return &faultinject.Error{Site: "cache.write", Key: fingerprint}
		case faultinject.KindDelay:
			c.fault.Sleep(c.ctx)
		}
		return c.writeAtomic(fingerprint, data)
	})
	if err != nil {
		c.cnt.Add(telemetry.CacheErrors, 1)
		return
	}
	c.cnt.Add(telemetry.CacheWrites, 1)
	c.cnt.Add(telemetry.CacheBytesWritten, int64(len(data)))
}

// writeAtomic lands data at the entry path via temp file + rename, so
// concurrent readers see either the old complete entry or the new one,
// never a torn write. It does not fsync: after a power loss an entry may
// be empty or torn, but every entry is CRC-sealed, so load quarantines it
// and the pipeline recomputes it — the cache is an accelerator, never the
// only copy of a result.
func (c *diskCache) writeAtomic(fingerprint string, data []byte) error {
	tmp, err := os.CreateTemp(c.dir, "entry-*.tmp")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), c.path(fingerprint)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

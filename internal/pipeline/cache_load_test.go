package pipeline

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"runtime"
	"testing"

	"schemaevo/internal/synth"
	"schemaevo/internal/telemetry"
)

// TestLoadEntryOutlivesItsFile pins the lifetime contract of a warm hit:
// the decoded entry's strings are views into the heap buffer load read,
// not into the file, so overwriting and removing the file and collecting
// garbage leaves the entry intact, down to its re-encoded bytes.
func TestLoadEntryOutlivesItsFile(t *testing.T) {
	payload := validEntryBytes(t)
	image := seal(payload)
	cache, err := openCache(t.TempDir(), nil, nil, context.Background())
	if err != nil {
		t.Fatal(err)
	}
	probe, err := DecodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	fp := probe.Fingerprint
	if err := os.WriteFile(cache.path(fp), image, 0o644); err != nil {
		t.Fatal(err)
	}
	e := cache.load(fp)
	if e == nil {
		t.Fatal("valid entry read as a miss")
	}
	if err := os.WriteFile(cache.path(fp), bytes.Repeat([]byte{0xA5}, len(image)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(cache.path(fp)); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	if got := seal(EncodeResult(e)); !bytes.Equal(got, image) {
		t.Fatal("loaded entry changed after its file was overwritten and removed")
	}
}

// loadCounts loads fingerprint fp from a fresh cache after plant has
// prepared the entry's path, and returns whether it hit and the cache's
// counters.
func loadCounts(t *testing.T, fp string, plant func(path string)) (bool, telemetry.CacheReport) {
	t.Helper()
	tel := telemetry.New()
	cache, err := openCache(t.TempDir(), nil, tel, context.Background())
	if err != nil {
		t.Fatal(err)
	}
	plant(cache.path(fp))
	hit := cache.load(fp) != nil
	if _, err := os.Stat(cache.path(fp)); !os.IsNotExist(err) {
		t.Errorf("entry still live after a failed load: %v", err)
	}
	return hit, tel.Snapshot().Cache
}

// TestLoadEmptyFileQuarantined pins that a zero-length entry (a torn
// write after a power loss) is corruption: quarantined, counted, and a
// miss.
func TestLoadEmptyFileQuarantined(t *testing.T) {
	hit, got := loadCounts(t, "empty", func(path string) {
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	want := telemetry.CacheReport{Misses: 1, Errors: 1, Corrupt: 1, Quarantined: 1}
	if hit || got != want {
		t.Fatalf("hit %v, counters %+v; want a miss with %+v", hit, got, want)
	}
}

// TestLoadMissingFileIsPlainMiss pins that an absent entry is an
// ordinary miss: no cache error, no retry, nothing quarantined.
func TestLoadMissingFileIsPlainMiss(t *testing.T) {
	hit, got := loadCounts(t, "nope", func(string) {})
	want := telemetry.CacheReport{Misses: 1}
	if hit || got != want {
		t.Fatalf("hit %v, counters %+v; want a miss with %+v", hit, got, want)
	}
}

// TestLoadStaleVersionIsPlainMiss pins that a sound entry written under
// another format version is stale, not corrupt: a plain miss that removes
// the entry, with no cache error and nothing quarantined.
func TestLoadStaleVersionIsPlainMiss(t *testing.T) {
	payload := validEntryBytes(t)
	binary.LittleEndian.PutUint32(payload[4:8], cacheFormatVersion-1)
	hit, got := loadCounts(t, "stale", func(path string) {
		if err := os.WriteFile(path, seal(payload), 0o644); err != nil {
			t.Fatal(err)
		}
	})
	want := telemetry.CacheReport{Misses: 1}
	if hit || got != want {
		t.Fatalf("hit %v, counters %+v; want a miss with %+v", hit, got, want)
	}
}

// TestWarmRunsAddNoMappings guards the memory footprint of repeated warm
// runs in one process: a hit must not leave a memory mapping behind, so
// 20 warm passes grow /proc/self/maps by fewer lines than one pass has
// entries.
func TestWarmRunsAddNoMappings(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/proc/self/maps is Linux-only")
	}
	c, err := synth.RandomCorpus(32, 5)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{CacheDir: t.TempDir()}
	before := 0
	// Pass 0 fills the cache and pass 1 settles the heap; 20 follow.
	for i := 0; i < 22; i++ {
		if i == 2 {
			before = mapLines(t)
		}
		stats, err := Run(context.Background(), c, opts)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && stats.CacheHits != len(c.Projects) {
			t.Fatalf("warm pass %d: %d hits of %d", i, stats.CacheHits, len(c.Projects))
		}
	}
	if grew := mapLines(t) - before; grew >= len(c.Projects) {
		t.Fatalf("20 warm passes added %d mappings; one pass has %d entries", grew, len(c.Projects))
	}
}

func mapLines(t *testing.T) int {
	t.Helper()
	data, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(data, []byte{'\n'})
}

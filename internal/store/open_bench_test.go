package store

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// openBenchEntries is how many entries BenchmarkStoreOpen's store holds;
// with openBenchBody-byte sources and results its eight shards hold about
// 4 MB each.
const (
	openBenchEntries = 2048
	openBenchBody    = 8 << 10
)

// BenchmarkStoreOpen times Open's recovery over a store of generated
// entries: opening and scanning every shard, and resolving liveness. It
// reports the segment bytes scanned per second.
func BenchmarkStoreOpen(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	body := func() []byte {
		p := make([]byte, openBenchBody/2+rng.Intn(openBenchBody))
		rng.Read(p)
		return p
	}
	for i := 0; i < openBenchEntries; i++ {
		id := fmt.Sprintf("proj-%04d", i)
		e := Entry{ID: id + "-v1", Name: id, Fingerprint: "fp-" + id + "-v1", Source: body(), Result: body()}
		if _, err := s.Put(e); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "shard-*.seg"))
	if err != nil {
		b.Fatal(err)
	}
	var size int64
	for _, p := range segs {
		fi, err := os.Stat(p)
		if err != nil {
			b.Fatal(err)
		}
		size += fi.Size()
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(Config{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if n := s.Len(); n != openBenchEntries {
			b.Fatalf("Open recovered %d entries, want %d", n, openBenchEntries)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

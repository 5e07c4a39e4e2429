package telemetry

import (
	"testing"
	"time"
)

// The overhead contract (DESIGN.md §8): disabled telemetry — a nil
// collector and nil stage handles — must cost a single nil check per
// call, no atomics, no allocation. These benchmarks pin that floor; the
// CI smoke compares whole-pipeline wall time with telemetry off vs on.

func BenchmarkDisabledStageObserve(b *testing.B) {
	var s *Stage
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Enter()
		s.Observe(time.Microsecond, time.Microsecond, false)
		s.Exit()
	}
}

func BenchmarkDisabledCacheCounters(b *testing.B) {
	var c *Collector
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(CacheHits, 1)
		c.Add(CacheBytesRead, 1024)
		c.Add(CacheMisses, 1)
	}
}

func BenchmarkEnabledStageObserve(b *testing.B) {
	s := New().Stage("parse")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Enter()
		s.Observe(time.Microsecond, time.Microsecond, false)
		s.Exit()
	}
}

func BenchmarkEnabledStageObserveParallel(b *testing.B) {
	s := New().Stage("parse")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s.Enter()
			s.Observe(time.Microsecond, time.Microsecond, false)
			s.Exit()
		}
	})
}

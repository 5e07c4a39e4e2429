// Package telemetry is the toolchain's zero-dependency observability
// layer: per-stage counters and duration histograms, queue-wait and
// worker-occupancy tracking, the cache, store and render event counters
// of one declarative table (counters.go), fault and degradation event
// tallies, and the Span type of per-project traces.
//
// The design contract is that disabled telemetry costs nothing on the hot
// path: a nil *Collector (and the nil *Stage handles it hands out) is a
// valid no-op — every method nil-checks its receiver and returns
// immediately, so instrumented code carries no conditional wiring and no
// allocation when observability is off. When enabled, the hot-path
// operations are single atomic adds. BenchmarkDisabled* pins the
// disabled-path cost at the single-nil-check floor;
// TestAllocBudgetTelemetry holds it, and every counter Add, at zero
// allocations.
//
// A Collector holds process-wide tallies only: one CLI run or one
// daemon. Wire it through pipeline.Options and read the results with
// Snapshot (a Report with stable, documented field order). Spans belong
// to the run that made them: pipeline.Run returns its own in
// Stats.Spans, and WriteTraceJSONL exports such a slice.
package telemetry

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// histBuckets is the number of exponential duration buckets: bucket i
// counts durations in [2^(i-1), 2^i) microseconds, so the histogram spans
// sub-microsecond to ~2^38 µs (~76 hours) — wider than any stage run.
const histBuckets = 40

// histogram is a lock-free exponential duration histogram.
type histogram struct {
	counts [histBuckets]atomic.Int64
}

// observe files one duration. Safe for concurrent use.
func (h *histogram) observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	idx := bits.Len64(uint64(us)) // 0 for <1µs
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	h.counts[idx].Add(1)
}

// quantile returns the upper bound of the bucket holding the q-th
// quantile (q in [0,1]), as a duration. Zero observations yield 0.
func (h *histogram) quantile(q float64) time.Duration {
	total := int64(0)
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	run := int64(0)
	for i := range h.counts {
		run += h.counts[i].Load()
		if run > target {
			if i == 0 {
				return time.Microsecond
			}
			return time.Duration(int64(1)<<i) * time.Microsecond
		}
	}
	return time.Duration(int64(1)<<(histBuckets-1)) * time.Microsecond
}

// Stage accumulates one pipeline stage's telemetry. Obtain handles from
// Collector.Stage once per run and reuse them: every method is a plain
// atomic update (or a no-op on a nil receiver), so handles are safe to
// call from any number of workers.
type Stage struct {
	name    string
	col     *Collector
	workers atomic.Int64
	jobs    atomic.Int64
	errs    atomic.Int64
	busyNS  atomic.Int64
	waitNS  atomic.Int64
	active  atomic.Int64
	maxAct  atomic.Int64
	hist    histogram
}

// SetWorkers records the stage's configured pool size. Nil-safe.
func (s *Stage) SetWorkers(n int) {
	if s == nil {
		return
	}
	s.workers.Store(int64(n))
}

// Enter marks a worker busy on this stage, maintaining the occupancy
// high-water mark. Nil-safe.
func (s *Stage) Enter() {
	if s == nil {
		return
	}
	cur := s.active.Add(1)
	for {
		max := s.maxAct.Load()
		if cur <= max || s.maxAct.CompareAndSwap(max, cur) {
			return
		}
	}
}

// Exit marks the worker idle again. Nil-safe.
func (s *Stage) Exit() {
	if s == nil {
		return
	}
	s.active.Add(-1)
}

// Observe files one processed job: how long it waited in the stage's
// input queue, how long the stage function ran, and whether it failed.
// Nil-safe.
func (s *Stage) Observe(wait, busy time.Duration, failed bool) {
	if s == nil {
		return
	}
	s.jobs.Add(1)
	if failed {
		s.errs.Add(1)
	}
	s.busyNS.Add(int64(busy))
	s.waitNS.Add(int64(wait))
	s.hist.observe(busy)
}

// Span is one traced unit of work: a (project, stage) pair with its
// start offset from the start of the run that made it and its duration.
type Span struct {
	Project string `json:"project"`
	Stage   string `json:"stage"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	Err     bool   `json:"err,omitempty"`
}

// Collector gathers process-wide telemetry. A nil *Collector is a valid
// no-op: every method (and every handle it returns) checks for nil, so
// instrumented code needs no enablement flags. Construct with New.
type Collector struct {
	start time.Time

	mu      sync.Mutex
	stages  []*Stage
	byName  map[string]*Stage
	faults  map[string]int64
	degrade map[string]int64
	gauges  map[string]int64

	counters Counters
}

// New returns a collector anchored at the current time.
func New() *Collector {
	return &Collector{
		start:   time.Now(),
		byName:  map[string]*Stage{},
		faults:  map[string]int64{},
		degrade: map[string]int64{},
		gauges:  map[string]int64{},
	}
}

// Stage returns the accumulator for the named stage, registering it on
// first use. The handle order of first registration is the report order.
// A nil collector returns a nil (still fully usable, no-op) handle.
func (c *Collector) Stage(name string) *Stage {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.byName[name]; ok {
		return s
	}
	s := &Stage{name: name, col: c}
	c.byName[name] = s
	c.stages = append(c.stages, s)
	return s
}

// Add adds n to counter k. Nil-safe.
func (c *Collector) Add(k Counter, n int64) {
	if c == nil {
		return
	}
	c.counters.Add(k, n)
}

// Counters returns the collector's own block, the parent to chain a
// component's block to with NewCounters. A nil collector returns nil.
func (c *Collector) Counters() *Counters {
	if c == nil {
		return nil
	}
	return &c.counters
}

// SetGauge records the current value of a named gauge (health state,
// read-only flag, free disk bytes). Last write wins; gauges render sorted
// by name in the report. Nil-safe.
func (c *Collector) SetGauge(name string, v int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.gauges[name] = v
	c.mu.Unlock()
}

// Fault records one injected fault firing at a site: the observer to
// install on an injector with SetObserver, the one tally of fired faults.
// Nil-safe. This is a cold path (faults are rare by construction), so a
// mutex is fine.
func (c *Collector) Fault(site, kind string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.faults[site+"/"+kind]++
	c.mu.Unlock()
}

// Degradation records one degradation event of the given taxonomy kind
// (parse, assemble, metrics, timeout, panic, anomaly, ...). Nil-safe.
func (c *Collector) Degradation(kind string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.degrade[kind]++
	c.mu.Unlock()
}

package telemetry

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// reportInts returns the address of every int64 field of r's counter
// blocks and of its top-level int64 fields other than the elapsed time,
// keyed by the field's JSON path.
func reportInts(r *Report) map[*int64]string {
	out := map[*int64]string{}
	var walk func(v reflect.Value, prefix string)
	walk = func(v reflect.Value, prefix string) {
		for i := 0; i < v.NumField(); i++ {
			f, tf := v.Field(i), v.Type().Field(i)
			name := prefix + strings.Split(tf.Tag.Get("json"), ",")[0]
			switch {
			case f.Kind() == reflect.Struct:
				walk(f, name+".")
			case f.Kind() == reflect.Int64 && name != "elapsed_us":
				out[f.Addr().Interface().(*int64)] = name
			}
		}
	}
	walk(reflect.ValueOf(r).Elem(), "")
	return out
}

// TestCounterTableSlots checks the table against the Report type: every
// int64 report field is fed by exactly one counter.
func TestCounterTableSlots(t *testing.T) {
	var r Report
	fields := reportInts(&r)
	owner := map[*int64]Counter{}
	for k := Counter(0); k < numCounters; k++ {
		p := counterTable[k].field(&r)
		if _, ok := fields[p]; !ok {
			t.Errorf("%v feeds a field outside the counter blocks", k)
		}
		if prev, ok := owner[p]; ok {
			t.Errorf("%v and %v feed the same field %s", prev, k, fields[p])
		}
		owner[p] = k
	}
	for p, name := range fields {
		if _, ok := owner[p]; !ok {
			t.Errorf("report field %s has no counter", name)
		}
	}
}

// flatReport flattens a report's JSON into path -> value, leaving out
// the elapsed time and the hit rates derived from counters.
func flatReport(t *testing.T, r *Report) map[string]float64 {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	var walk func(m map[string]any, prefix string)
	walk = func(m map[string]any, prefix string) {
		for k, v := range m {
			switch v := v.(type) {
			case map[string]any:
				walk(v, prefix+k+".")
			case float64:
				if k != "elapsed_us" && k != "hit_rate" {
					out[prefix+k] = v
				}
			}
		}
	}
	walk(m, "")
	return out
}

// TestCounterMovesOwnFields adds one to each counter of a fresh collector
// and checks, on the marshaled report, that exactly the counter's own
// JSON field moved, by one.
func TestCounterMovesOwnFields(t *testing.T) {
	base := flatReport(t, New().Snapshot())
	for k := Counter(0); k < numCounters; k++ {
		c := New()
		c.Add(k, 1)
		var moved []string
		for path, v := range flatReport(t, c.Snapshot()) {
			if v != base[path] {
				moved = append(moved, fmt.Sprintf("%s=%v", path, v-base[path]))
			}
		}
		sort.Strings(moved)
		want := []string{k.String() + "=1"}
		if fmt.Sprint(moved) != fmt.Sprint(want) {
			t.Errorf("Add(%v, 1) moved %v, want %v", k, moved, want)
		}
	}
}

// TestChainedCountersConcurrent adds into two chained blocks from many
// goroutines: each block keeps its own total, the shared parent the sum.
// Run it under -race -count=10.
func TestChainedCountersConcurrent(t *testing.T) {
	c := New()
	a, b := NewCounters(c.Counters()), NewCounters(c.Counters())
	const workers, adds = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		blk := a
		if w%2 == 1 {
			blk = b
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				blk.Add(StoreCompactions, 1)
				blk.Add(StoreBytesWritten, 2)
			}
		}()
	}
	wg.Wait()
	const half = workers / 2 * adds
	if a.Load(StoreCompactions) != half || b.Load(StoreCompactions) != half {
		t.Fatalf("block compactions = %d/%d, want %d each", a.Load(StoreCompactions), b.Load(StoreCompactions), half)
	}
	rep := c.Snapshot()
	if rep.Store.Compactions != 2*half || rep.Store.BytesWritten != 4*half {
		t.Fatalf("collector compactions/bytes = %d/%d, want %d/%d", rep.Store.Compactions, rep.Store.BytesWritten, 2*half, 4*half)
	}
	var unchained Counters
	unchained.Add(CacheHits, 1)
	var none *Counters
	none.Add(CacheHits, 1)
	if unchained.Load(CacheHits) != 1 || none.Load(CacheHits) != 0 || c.Counters().Load(CacheHits) != 0 {
		t.Fatal("an unchained or nil block leaked into the collector")
	}
}

// TestAllocBudgetTelemetry pins the zero-cost contract: a disabled (nil)
// collector and its nil stage allocate nothing, and an enabled counter
// Add allocates nothing either.
func TestAllocBudgetTelemetry(t *testing.T) {
	var off *Collector
	now := time.Now()
	on := New()
	blk := NewCounters(on.Counters())
	cases := []struct {
		name string
		fn   func()
	}{
		{"disabled Add", func() { off.Add(CacheHits, 1) }},
		{"disabled Stage+Observe", func() {
			off.Stage("parse").Observe(time.Microsecond, time.Microsecond, false)
		}},
		{"disabled RecordSpan", func() { off.RecordSpan("project", "parse", now, time.Microsecond, false) }},
		{"enabled Add", func() { on.Add(CacheHits, 1) }},
		{"enabled chained Add", func() { blk.Add(StoreAppends, 1) }},
	}
	for _, tc := range cases {
		if got := testing.AllocsPerRun(1000, tc.fn); got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, got)
		}
	}
}

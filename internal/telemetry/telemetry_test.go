package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilCollectorIsNoOp drives the entire surface through a nil
// collector: nothing may panic, and everything returns zero values.
func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	s := c.Stage("parse")
	if s != nil {
		t.Fatal("nil collector returned a non-nil stage")
	}
	s.SetWorkers(4)
	s.Enter()
	s.Exit()
	s.Observe(time.Millisecond, time.Millisecond, true)
	for k := Counter(0); k < numCounters; k++ {
		c.Add(k, 1)
	}
	if c.Counters() != nil {
		t.Fatal("nil collector returned a non-nil counter block")
	}
	c.Fault("site", "kind")
	c.Degradation("parse")
	if got := c.Snapshot(); got != nil {
		t.Fatalf("nil collector has a snapshot: %+v", got)
	}
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "null" {
		t.Fatalf("nil collector report = %q, want null", buf.String())
	}
}

// TestStageAccounting checks counters, histograms and occupancy under
// concurrent observation.
func TestStageAccounting(t *testing.T) {
	c := New()
	s := c.Stage("parse")
	s.SetWorkers(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Enter()
				s.Observe(time.Microsecond, 10*time.Microsecond, i%10 == 0)
				s.Exit()
			}
		}()
	}
	wg.Wait()

	rep := c.Snapshot()
	if len(rep.Stages) != 1 {
		t.Fatalf("stages = %d, want 1", len(rep.Stages))
	}
	sr := rep.Stages[0]
	if sr.Name != "parse" || sr.Workers != 8 {
		t.Fatalf("stage header = %q/%d", sr.Name, sr.Workers)
	}
	if sr.Jobs != 800 {
		t.Fatalf("jobs = %d, want 800", sr.Jobs)
	}
	if sr.Errors != 80 {
		t.Fatalf("errors = %d, want 80", sr.Errors)
	}
	if sr.BusyUS != 8000 {
		t.Fatalf("busy = %dµs, want 8000", sr.BusyUS)
	}
	if sr.QueueWaitUS != 800 {
		t.Fatalf("wait = %dµs, want 800", sr.QueueWaitUS)
	}
	if sr.MaxOccupancy < 1 || sr.MaxOccupancy > 8 {
		t.Fatalf("max occupancy = %d, want in [1,8]", sr.MaxOccupancy)
	}
	// 10µs observations land in the (8,16] bucket: upper bound 16.
	if sr.P50US != 16 || sr.MaxUS != 16 {
		t.Fatalf("p50/max = %d/%d µs, want 16/16", sr.P50US, sr.MaxUS)
	}
}

// TestStageRegistrationOrder pins report order to first-registration
// order regardless of observation order.
func TestStageRegistrationOrder(t *testing.T) {
	c := New()
	c.Stage("parse")
	c.Stage("assemble")
	c.Stage("metrics")
	c.Stage("assemble").Observe(0, time.Millisecond, false)
	var names []string
	for _, s := range c.Snapshot().Stages {
		names = append(names, s.Name)
	}
	want := []string{"parse", "assemble", "metrics"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("stage order = %v, want %v", names, want)
	}
}

// TestCacheAndEventCounters checks the cache tallies, hit rate, and the
// sorted fault/degradation tallies.
func TestCacheAndEventCounters(t *testing.T) {
	c := New()
	c.Add(CacheHits, 3)
	c.Add(CacheBytesRead, 300)
	c.Add(CacheMisses, 1)
	c.Add(CacheWrites, 1)
	c.Add(CacheBytesWritten, 400)
	c.Add(CacheErrors, 1)
	c.Add(CacheCorrupt, 1)
	c.Fault("cache.read", "io-error")
	c.Fault("cache.read", "io-error")
	c.Fault("pipeline.parse", "panic")
	c.Degradation("timeout")
	c.Degradation("anomaly")

	rep := c.Snapshot()
	cr := rep.Cache
	if cr.Hits != 3 || cr.Misses != 1 || cr.Writes != 1 || cr.Errors != 1 ||
		cr.Corrupt != 1 {
		t.Fatalf("cache counters wrong: %+v", cr)
	}
	if cr.BytesRead != 300 || cr.BytesWritten != 400 {
		t.Fatalf("cache bytes = %d/%d, want 300/400", cr.BytesRead, cr.BytesWritten)
	}
	if cr.HitRate != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", cr.HitRate)
	}
	if len(rep.Faults) != 2 || rep.Faults[0].Name != "cache.read/io-error" || rep.Faults[0].Count != 2 {
		t.Fatalf("faults = %+v", rep.Faults)
	}
	if len(rep.Degradation) != 2 || rep.Degradation[0].Name != "anomaly" {
		t.Fatalf("degradation = %+v", rep.Degradation)
	}
}

// TestStoreCounters checks the result-store counter block, including its
// whole-store hit-rate definition (hot misses that a disk hit answers are
// not misses of the store).
func TestStoreCounters(t *testing.T) {
	c := New()
	c.Add(StoreHotHits, 2)
	c.Add(StoreHotMisses, 2)
	c.Add(StoreDiskHits, 1)
	c.Add(StoreDiskMisses, 1)
	c.Add(StoreBytesRead, 500)
	c.Add(StoreAppends, 2)
	c.Add(StoreBytesWritten, 750)
	c.Add(StoreFlushes, 1)
	c.Add(StoreFlushErrors, 1)
	c.Add(StoreCompactions, 1)
	c.Add(StoreQuarantined, 1)
	c.Add(StoreEvictions, 1)
	c.Add(StoreReanalyses, 1)

	sr := c.Snapshot().Store
	if sr.HotHits != 2 || sr.HotMisses != 2 || sr.DiskHits != 1 || sr.DiskMisses != 1 {
		t.Fatalf("tier counters wrong: %+v", sr)
	}
	if sr.Appends != 2 || sr.Flushes != 1 || sr.FlushErrors != 1 || sr.Compactions != 1 {
		t.Fatalf("write-path counters wrong: %+v", sr)
	}
	if sr.Quarantined != 1 || sr.Evictions != 1 || sr.Reanalyses != 1 {
		t.Fatalf("health counters wrong: %+v", sr)
	}
	if sr.BytesRead != 500 || sr.BytesWritten != 750 {
		t.Fatalf("store bytes = %d/%d, want 500/750", sr.BytesRead, sr.BytesWritten)
	}
	if sr.HitRate != 0.75 { // 3 hits / (3 hits + 1 terminal miss)
		t.Fatalf("store hit rate = %v, want 0.75", sr.HitRate)
	}
}

// TestTraceJSONL checks span export: one JSON object per line, in the
// order given, with the fields and the omitted-when-false err flag of
// the trace format; no spans write nothing.
func TestTraceJSONL(t *testing.T) {
	in := []Span{
		{Project: "alpha", Stage: "parse", StartUS: 1000, DurUS: 1000, Err: true},
		{Project: "beta", Stage: "parse", StartUS: 2000, DurUS: 1000},
		{Project: "alpha", Stage: "assemble", StartUS: 3000, DurUS: 1000},
	}
	var buf bytes.Buffer
	if err := WriteTraceJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	want := `{"project":"alpha","stage":"parse","start_us":1000,"dur_us":1000,"err":true}
{"project":"beta","stage":"parse","start_us":2000,"dur_us":1000}
{"project":"alpha","stage":"assemble","start_us":3000,"dur_us":1000}
`
	if buf.String() != want {
		t.Fatalf("trace =\n%s\nwant\n%s", buf.String(), want)
	}
	var spans []Span
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var sp Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		spans = append(spans, sp)
	}
	if !reflect.DeepEqual(spans, in) {
		t.Fatalf("round trip = %+v, want %+v", spans, in)
	}
	buf.Reset()
	if err := WriteTraceJSONL(&buf, nil); err != nil || buf.Len() != 0 {
		t.Fatalf("no spans wrote %q (err %v)", buf.String(), err)
	}
}

// TestReportShapeStable asserts two snapshots of different collectors
// marshal to the same JSON key structure — the report-contract property
// the CLI golden test relies on.
func TestReportShapeStable(t *testing.T) {
	a := New()
	a.Stage("parse").Observe(0, time.Millisecond, false)
	b := New()
	b.Stage("parse")
	b.Add(CacheHits, 1)
	b.Fault("x", "y") // faults list length may differ; keys inside entries must not

	keysOf := func(rep *Report) string {
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return strings.Join(keys, ",")
	}
	if got, want := keysOf(a.Snapshot()), keysOf(b.Snapshot()); got != want {
		t.Fatalf("report top-level key sets differ: %s vs %s", got, want)
	}
	// Slices must be present (never null) so the shape is constant.
	data, _ := json.Marshal(New().Snapshot())
	for _, field := range []string{`"stages":[]`, `"faults":[]`, `"degradation":[]`} {
		if !bytes.Contains(data, []byte(field)) {
			t.Fatalf("empty report missing %s: %s", field, data)
		}
	}
}

// TestServePprof boots the observability listener on an ephemeral port
// and fetches the three endpoint families.
func TestServePprof(t *testing.T) {
	c := New()
	c.Stage("parse").Observe(0, time.Millisecond, false)
	addr, err := Serve("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/debug/pprof/", "/debug/vars", "/debug/telemetry"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Fatalf("%s: empty body", path)
		}
		if path == "/debug/telemetry" {
			var rep Report
			if err := json.Unmarshal(body, &rep); err != nil {
				t.Fatalf("/debug/telemetry not a report: %v", err)
			}
			if len(rep.Stages) != 1 {
				t.Fatalf("/debug/telemetry stages = %d", len(rep.Stages))
			}
		}
	}
}

// TestHistogramQuantiles sanity-checks bucket math at the edges.
func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	if got := h.quantile(0.5); got != 0 {
		t.Fatalf("empty histogram p50 = %v, want 0", got)
	}
	h.observe(0)
	if got := h.quantile(1.0); got != time.Microsecond {
		t.Fatalf("sub-µs max = %v, want 1µs", got)
	}
	h.observe(100 * time.Millisecond) // 1e5 µs -> bucket upper bound 2^17
	if got := h.quantile(1.0); got != (1<<17)*time.Microsecond {
		t.Fatalf("max = %v, want %v", got, (1<<17)*time.Microsecond)
	}
	h.observe(-time.Second) // negative durations clamp to the floor bucket
	if got := h.quantile(0.0); got != time.Microsecond {
		t.Fatalf("p0 = %v, want 1µs", got)
	}
}

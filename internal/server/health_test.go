// Black-box tests of the health state machine, the per-write full-disk
// refusal, and the self-healing scrub-and-repair loop — all driven over
// HTTP, with deterministic chaos from internal/faultinject.
package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"schemaevo/internal/faultinject"
	"schemaevo/internal/server"
	"schemaevo/internal/telemetry"
)

// healthzBody mirrors the /healthz wire shape the tests assert on.
type healthzBody struct {
	Status         string   `json:"status"`
	Projects       int      `json:"projects"`
	Stored         int      `json:"stored"`
	PendingRepairs int      `json:"pending_repairs"`
	QueueDepth     int      `json:"queue_depth"`
	Reasons        []string `json:"reasons"`
}

// readyzBody mirrors the /readyz wire shape.
type readyzBody struct {
	Status  string   `json:"status"`
	State   string   `json:"state"`
	Reasons []string `json:"reasons"`
}

func getHealthz(t *testing.T, base string) (int, healthzBody) {
	t.Helper()
	status, _, body := do(t, http.MethodGet, base+"/healthz", nil)
	var hz healthzBody
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatalf("healthz body %s: %v", body, err)
	}
	return status, hz
}

func getReadyz(t *testing.T, base string) (int, http.Header, readyzBody) {
	t.Helper()
	status, hdr, body := do(t, http.MethodGet, base+"/readyz", nil)
	var rz readyzBody
	if err := json.Unmarshal(body, &rz); err != nil {
		t.Fatalf("readyz body %s: %v", body, err)
	}
	return status, hdr, rz
}

// TestHealthzReadyzHealthy pins the probe contract of an untroubled
// server: /healthz reports "healthy" with empty pressure fields, /readyz
// answers 200 "ready".
func TestHealthzReadyzHealthy(t *testing.T) {
	_, hs := newService(t, server.Config{Corpus: testCorpus(t)})
	status, hz := getHealthz(t, hs.URL)
	if status != http.StatusOK || hz.Status != "healthy" {
		t.Fatalf("healthz = %d %q, want 200 healthy", status, hz.Status)
	}
	if hz.PendingRepairs != 0 || len(hz.Reasons) != 0 {
		t.Fatalf("healthy server reports pressure: %+v", hz)
	}
	status, _, rz := getReadyz(t, hs.URL)
	if status != http.StatusOK || rz.Status != "ready" || rz.State != "healthy" {
		t.Fatalf("readyz = %d %+v, want 200 ready/healthy", status, rz)
	}
}

// TestDiskFullRefusesOnlyItsWrite: an ENOSPC answers its submission 503
// + Retry-After (never acked) and nothing more. The server stays healthy
// and writable, so a later submission whose write finds room is acked,
// and every acked project still reads 200 after the refusals.
func TestDiskFullRefusesOnlyItsWrite(t *testing.T) {
	fault := faultinject.New(faultinject.Config{
		Seed: 1, Rate: 0.5,
		Kinds: []faultinject.Kind{faultinject.KindErr},
		Sites: []string{"store.diskfull"},
	})
	srv, hs := newService(t, server.Config{StoreDir: t.TempDir(), Fault: fault})
	refused, ackedAfter := 0, 0
	var acked []string
	for i := 0; i < 16; i++ {
		status, hdr, body := post(t, hs.URL, distinctRepo(i))
		switch {
		case status == http.StatusServiceUnavailable && hdr.Get("Retry-After") != "":
			refused++
		case status == http.StatusOK:
			if refused > 0 {
				ackedAfter++
			}
			var wire struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(body, &wire); err != nil {
				t.Fatal(err)
			}
			acked = append(acked, wire.ID)
		default:
			t.Fatalf("submit %d: status %d, body %s; want 200 or 503 + Retry-After", i, status, body)
		}
		if st := srv.HealthState(); st != server.StateHealthy {
			t.Fatalf("after submit %d: health %v, want healthy", i, st)
		}
	}
	if refused == 0 || ackedAfter == 0 {
		t.Fatalf("%d refused, %d acked after a refusal; the fault plan needs both", refused, ackedAfter)
	}
	if got := srv.Stored(); got != 16-refused {
		t.Fatalf("Stored = %d, want %d (every ack, no refusal)", got, 16-refused)
	}
	for _, id := range acked {
		if status, _, _ := do(t, http.MethodGet, hs.URL+"/v1/projects/"+id, nil); status != http.StatusOK {
			t.Fatalf("GET %s after a refused write: status %d, want 200", id, status)
		}
	}
}

// TestDegradedWhileSaturated pins the degraded state: with the only
// worker slot held by a stalled analysis, /readyz stays 200 (a busy
// replica still serves) but reports "degraded".
func TestDegradedWhileSaturated(t *testing.T) {
	srv, hs := newService(t, server.Config{
		Corpus:        testCorpus(t),
		MaxConcurrent: 1,
		Fault:         delayInjector(3 * time.Second),
	})

	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		post(t, hs.URL, distinctRepo(0))
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled submission never entered the handler")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // let it pass fingerprinting and take the slot

	status, _, rz := getReadyz(t, hs.URL)
	if status != http.StatusOK || rz.Status != "ready" || rz.State != "degraded" {
		t.Fatalf("readyz while saturated = %d %+v, want 200 ready/degraded", status, rz)
	}
	status, hz := getHealthz(t, hs.URL)
	if status != http.StatusOK || hz.Status != "degraded" || hz.QueueDepth != 1 {
		t.Fatalf("healthz while saturated = %d %+v, want 200 degraded depth 1", status, hz)
	}
	<-firstDone
	if st := srv.HealthState(); st != server.StateHealthy {
		t.Fatalf("HealthState() after drain = %v, want healthy", st)
	}
}

// TestScrubRepairsOverHTTP is the self-healing acceptance path: every
// submitted project's result record is declared latently corrupt by the
// "store.scrub" chaos site; one scrub pass must detect ALL of them,
// quarantine them, and repair each by re-analysis from its persisted
// source snapshot — after which every GET serves bytes identical to the
// original submission, with zero operator action.
func TestScrubRepairsOverHTTP(t *testing.T) {
	const n = 6
	srv, hs := newService(t, server.Config{
		StoreDir: t.TempDir(),
		// A two-entry hot tier forces most repairs down the re-analysis
		// path (the scrubber repairs hot entries from memory instead).
		LRUEntries: 2,
		Fault:      siteInjector("store.scrub", faultinject.KindCorrupt),
	})

	ids := make([]string, n)
	want := make([][]byte, n)
	for i := 0; i < n; i++ {
		status, _, body := post(t, hs.URL, distinctRepo(i))
		if status != http.StatusOK {
			t.Fatalf("submit %d: status %d, body %s", i, status, body)
		}
		var wire struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &wire); err != nil {
			t.Fatal(err)
		}
		ids[i], want[i] = wire.ID, body
	}

	rep := srv.ScrubNow(context.Background())
	if rep.Corrupt != n {
		t.Fatalf("scrub found %d corrupt records, want all %d", rep.Corrupt, n)
	}
	if rep.Repaired != n || rep.RepairFailed != 0 {
		t.Fatalf("scrub repaired %d (failed %d), want %d/0", rep.Repaired, rep.RepairFailed, n)
	}

	status, hz := getHealthz(t, hs.URL)
	if status != http.StatusOK || hz.PendingRepairs != 0 {
		t.Fatalf("healthz after scrub = %d %+v, want 200 with no pending repairs", status, hz)
	}
	for i, id := range ids {
		status, _, got := do(t, http.MethodGet, hs.URL+"/v1/projects/"+id, nil)
		if status != http.StatusOK {
			t.Fatalf("GET %s after repair: status %d", id, status)
		}
		if !bytes.Equal(got, want[i]) {
			t.Errorf("GET %s after repair: body differs from the original submission", id)
		}
	}
}

// TestBackgroundScrubberHealsService runs the loop for real: the server
// is configured with a fast ScrubInterval, latent corruption is injected
// through the chaos site, and the test only observes — polling /metrics
// until the repair counters prove the service healed itself.
func TestBackgroundScrubberHealsService(t *testing.T) {
	const n = 3
	_, hs := newService(t, server.Config{
		StoreDir:      t.TempDir(),
		ScrubInterval: 2 * time.Millisecond,
		Fault:         siteInjector("store.scrub", faultinject.KindCorrupt),
		Telemetry:     telemetry.New(),
	})

	ids := make([]string, n)
	for i := 0; i < n; i++ {
		status, _, body := post(t, hs.URL, distinctRepo(i))
		if status != http.StatusOK {
			t.Fatalf("submit %d: status %d, body %s", i, status, body)
		}
		var wire struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &wire); err != nil {
			t.Fatal(err)
		}
		ids[i] = wire.ID
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		_, _, body := do(t, http.MethodGet, hs.URL+"/metrics", nil)
		var rep struct {
			Store struct {
				ScrubPasses int64 `json:"scrub_passes"`
				Repairs     int64 `json:"repairs"`
			} `json:"store"`
		}
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatalf("metrics body %s: %v", body, err)
		}
		if rep.Store.Repairs >= n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background scrubber repaired %d of %d within the deadline (passes %d)",
				rep.Store.Repairs, n, rep.Store.ScrubPasses)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, id := range ids {
		if status, _, _ := do(t, http.MethodGet, hs.URL+"/v1/projects/"+id, nil); status != http.StatusOK {
			t.Fatalf("GET %s after background healing: status %d", id, status)
		}
	}
}

// TestBatchDiskFullMidStream runs a batch whose second line meets a full
// disk: a "store.diskfull" plan spares line 1's project ID and fires on
// line 2's. The first line is acked, the second is an error line that
// did not land, and the stream still terminates with a well-formed
// summary.
func TestBatchDiskFullMidStream(t *testing.T) {
	// Content-hash IDs of the two lines, from a throwaway service.
	_, probe := newService(t, server.Config{})
	spared, full := submitID(t, probe.URL, distinctRepo(0)), submitID(t, probe.URL, distinctRepo(1))
	plan := func(seed int64) *faultinject.Injector {
		return faultinject.New(faultinject.Config{
			Seed: seed, Rate: 0.5,
			Kinds: []faultinject.Kind{faultinject.KindErr},
			Sites: []string{"store.diskfull"},
		})
	}
	seed := int64(1)
	for ; seed < 64; seed++ {
		fi := plan(seed)
		if fi.At("store.diskfull", spared) != faultinject.KindErr && fi.At("store.diskfull", full) == faultinject.KindErr {
			break
		}
	}
	if seed == 64 {
		t.Fatal("setup: no seed spares line 1 and fills the disk for line 2")
	}
	srv, hs := newService(t, server.Config{StoreDir: t.TempDir(), Fault: plan(seed)})
	pr, pw := io.Pipe()
	defer pw.Close()
	sendLine := func(i int) {
		t.Helper()
		data, err := json.Marshal(distinctRepo(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pw.Write(append(data, '\n')); err != nil {
			t.Fatal(err)
		}
	}
	type posted struct {
		resp *http.Response
		err  error
	}
	respCh := make(chan posted, 1)
	go func() {
		resp, err := http.Post(hs.URL+"/v1/projects:batch", "application/x-ndjson", pr)
		respCh <- posted{resp, err}
	}()

	sendLine(0)
	p := <-respCh // the headers go out with the first line's answer
	if p.err != nil {
		t.Fatal(p.err)
	}
	defer p.resp.Body.Close()
	sc := bufio.NewScanner(p.resp.Body)
	next := func() batchLine {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("stream ended early: %v", sc.Err())
		}
		var l batchLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("unparseable batch line %q: %v", sc.Bytes(), err)
		}
		return l
	}
	if l := next(); l.Status != "ok" {
		t.Fatalf("line 1 with room on disk: %+v, want ok", l)
	}

	sendLine(1)
	if l := next(); l.Status != "error" || l.Error == "" {
		t.Fatalf("line 2 on a full disk: %+v, want an error line with its reason", l)
	}
	pw.Close()
	if sum := next(); sum.Status != "summary" || sum.Lines != 2 || sum.OK != 1 || sum.Errors != 1 {
		t.Fatalf("summary = %+v, want 2 lines, 1 ok, 1 error", sum)
	}
	if got := srv.Stored(); got != 1 {
		t.Fatalf("Stored = %d, want 1 (the refused line must not land)", got)
	}
}

// Chaos and shutdown tests: deterministic fault injection on the
// handler path and the pipeline underneath it, plus the graceful-drain
// contract. The core invariant mirrors the pipeline chaos suite's: a
// fault becomes an attributed, structured response — never a hung
// request, never a crashed process.
package server_test

import (
	"encoding/json"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"schemaevo/internal/faultinject"
	"schemaevo/internal/server"
	"schemaevo/internal/telemetry"
)

// siteInjector fires the given kind at every key of one site.
func siteInjector(site string, kind faultinject.Kind) *faultinject.Injector {
	return faultinject.New(faultinject.Config{
		Seed:  1,
		Rate:  1,
		Kinds: []faultinject.Kind{kind},
		Sites: []string{site},
	})
}

// degradationBody decodes a 500 body and returns its report fields.
func degradationBody(t *testing.T, body []byte) (errMsg string, byKind map[string]int) {
	t.Helper()
	var wire struct {
		Error       string `json:"error"`
		Degradation *struct {
			ByKind   map[string]int `json:"by_kind"`
			Failures []struct {
				Project string `json:"project"`
				Kind    string `json:"kind"`
				Error   string `json:"error"`
			} `json:"failures"`
		} `json:"degradation"`
	}
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatalf("500 body is not structured JSON: %v\n%s", err, body)
	}
	if wire.Error == "" {
		t.Fatalf("500 body carries no error message: %s", body)
	}
	if wire.Degradation == nil {
		t.Fatalf("500 body carries no degradation report: %s", body)
	}
	if len(wire.Degradation.Failures) == 0 {
		t.Fatalf("degradation report lists no failures: %s", body)
	}
	return wire.Error, wire.Degradation.ByKind
}

// TestChaosPipelineFailure injects an I/O fault at the pipeline's parse
// site: the submission must come back as a prompt 500 whose body carries
// the pipeline's DegradationReport with the parse taxonomy — never a
// hung request.
func TestChaosPipelineFailure(t *testing.T) {
	_, hs := newService(t, server.Config{
		RequestTimeout: 10 * time.Second,
		Fault:          siteInjector("pipeline.parse", faultinject.KindErr),
	})
	start := time.Now()
	status, _, body := post(t, hs.URL, submitRepo())
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("faulted submission took %v; must fail promptly", took)
	}
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (body %s)", status, body)
	}
	_, byKind := degradationBody(t, body)
	if byKind["parse"] < 1 {
		t.Fatalf("degradation by_kind lacks parse: %v", byKind)
	}
}

// TestChaosHandlerError injects an I/O fault at the handler-path site
// itself (server.submit): attributed 500 with the "server" taxonomy.
func TestChaosHandlerError(t *testing.T) {
	_, hs := newService(t, server.Config{Fault: siteInjector("server.submit", faultinject.KindErr)})
	status, _, body := post(t, hs.URL, submitRepo())
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (body %s)", status, body)
	}
	_, byKind := degradationBody(t, body)
	if byKind["server"] < 1 {
		t.Fatalf("degradation by_kind lacks server: %v", byKind)
	}
}

// TestChaosHandlerPanic injects a panic at the handler-path site: the
// recover boundary converts it to an attributed 500 (panic taxonomy)
// and the server stays up and serves the same content afterwards.
func TestChaosHandlerPanic(t *testing.T) {
	fault := faultinject.New(faultinject.Config{
		Seed:  1,
		Rate:  1,
		Kinds: []faultinject.Kind{faultinject.KindPanic},
		Sites: []string{"server.submit"},
	})
	_, hs := newService(t, server.Config{Fault: fault})
	status, _, body := post(t, hs.URL, submitRepo())
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (body %s)", status, body)
	}
	_, byKind := degradationBody(t, body)
	if byKind["panic"] < 1 {
		t.Fatalf("degradation by_kind lacks panic: %v", byKind)
	}
	// The process survived; non-submit endpoints still serve.
	if status, _, _ := do(t, http.MethodGet, hs.URL+"/healthz", nil); status != http.StatusOK {
		t.Fatalf("healthz after panic: status %d", status)
	}
}

// TestChaosFaultsReachMetrics asserts faults fired inside a pipeline run
// surface in the /metrics report's fault tally.
func TestChaosFaultsReachMetrics(t *testing.T) {
	_, hs := newService(t, server.Config{Fault: siteInjector("pipeline.parse", faultinject.KindErr)})
	post(t, hs.URL, submitRepo())
	_, _, body := do(t, http.MethodGet, hs.URL+"/metrics", nil)
	var rep struct {
		Faults []struct {
			Name  string `json:"name"`
			Count int64  `json:"count"`
		} `json:"faults"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range rep.Faults {
		if f.Name == "pipeline.parse/io-error" && f.Count >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("metrics fault tally lacks pipeline.parse/io-error: %+v", rep.Faults)
	}
}

// TestMetricsCountEveryFault: faults fired outside any pipeline run —
// in the submit handler, on a torn flush, on a full disk — reach the
// /metrics fault tally too, each counted once per firing. Every POST
// here reaches its site exactly once, and the rate-1 plan fires there.
func TestMetricsCountEveryFault(t *testing.T) {
	const posts = 4
	for _, site := range []string{"server.submit", "store.flush", "store.diskfull"} {
		_, hs := newService(t, server.Config{StoreDir: t.TempDir(), Fault: siteInjector(site, faultinject.KindErr)})
		for i := 0; i < posts; i++ {
			if status, _, body := post(t, hs.URL, distinctRepo(i)); status < 500 {
				t.Fatalf("%s: submit %d: status %d, body %s; want 5xx", site, i, status, body)
			}
		}
		_, _, body := do(t, http.MethodGet, hs.URL+"/metrics", nil)
		var rep struct {
			Faults []telemetry.EventCount `json:"faults"`
		}
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatal(err)
		}
		want := []telemetry.EventCount{{Name: site + "/io-error", Count: posts}}
		if !reflect.DeepEqual(rep.Faults, want) {
			t.Errorf("%s: /metrics faults = %+v, want %+v", site, rep.Faults, want)
		}
	}
}

// TestGracefulDrain proves the lame-duck contract: after BeginDrain
// (what SIGTERM triggers in cmd/schemaevod), an in-flight submission
// runs to completion with a full 200, while every new request — on a
// fresh connection — is answered 503 with a Retry-After hint.
func TestGracefulDrain(t *testing.T) {
	srv, hs := newService(t, server.Config{
		RetryAfter: time.Second,
		Fault:      delayInjector(1500 * time.Millisecond),
	})

	var (
		wg         sync.WaitGroup
		slowStatus int
		slowBody   []byte
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		slowStatus, _, slowBody = post(t, hs.URL, submitRepo())
	}()

	// Wait for the slow submission to be in flight, then drain.
	deadline := time.Now().Add(5 * time.Second)
	for srv.InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow submission never entered the handler")
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv.BeginDrain()
	if !srv.Draining() {
		t.Fatal("Draining() = false after BeginDrain")
	}

	// New traffic is refused with 503 + Retry-After on every endpoint.
	for _, path := range []string{"/healthz", "/readyz", "/v1/corpus/stats", "/metrics"} {
		status, hdr, body := do(t, http.MethodGet, hs.URL+path, nil)
		if status != http.StatusServiceUnavailable {
			t.Fatalf("GET %s during drain: status %d, want 503", path, status)
		}
		if hdr.Get("Retry-After") == "" {
			t.Fatalf("GET %s during drain: no Retry-After header", path)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Fatalf("drain 503 body not structured: %s", body)
		}
	}
	status, _, _ := post(t, hs.URL, distinctRepo(3))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: status %d, want 503", status)
	}

	// The in-flight submission completes with a full result.
	wg.Wait()
	if slowStatus != http.StatusOK {
		t.Fatalf("in-flight submission during drain: status %d, body %s", slowStatus, slowBody)
	}
	var wire struct {
		Pattern string `json:"pattern"`
	}
	if err := json.Unmarshal(slowBody, &wire); err != nil || wire.Pattern == "" {
		t.Fatalf("in-flight submission returned an incomplete body: %s", slowBody)
	}
}

// TestChaosCorpusStartupUnaffected: the startup corpus analysis must be
// fault-free even under an aggressive injector — chaos applies to the
// serving path only, so a chaos-mode server still boots with a fully
// analyzed corpus.
func TestChaosCorpusStartupUnaffected(t *testing.T) {
	fault := faultinject.New(faultinject.Config{Seed: 7, Rate: 1})
	_, hs := newService(t, server.Config{Corpus: testCorpus(t), Fault: fault})
	status, _, body := do(t, http.MethodGet, hs.URL+"/v1/corpus/stats", nil)
	if status != http.StatusOK {
		t.Fatalf("stats: status %d", status)
	}
	var stats struct {
		Projects int `json:"projects"`
		Analyzed int `json:"analyzed"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Projects != 12 || stats.Analyzed != 12 {
		t.Fatalf("corpus = %d/%d analyzed, want 12/12", stats.Analyzed, stats.Projects)
	}
}

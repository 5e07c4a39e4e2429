package schemaevoclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// batchFake speaks the service's NDJSON batch protocol and can be told
// to kill the connection after acknowledging a set number of lines on a
// given request — the deterministic "connection dropped mid-stream".
type batchFake struct {
	mu sync.Mutex
	// dieAfter[reqIndex] = kill the connection after that many response
	// lines (0-based request counter; absent = complete normally).
	dieAfter map[int]int
	requests int
	// lineCounts records how many input lines each request carried.
	lineCounts []int
}

func (f *batchFake) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	reqIdx := f.requests
	f.requests++
	die, doDie := f.dieAfter[reqIdx]
	f.mu.Unlock()

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher := w.(http.Flusher)
	sc := bufio.NewScanner(r.Body)
	lineNo, okCount := 0, 0
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		lineNo++
		var doc struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			fmt.Fprintf(w, `{"line":%d,"status":"error","error":"bad json"}`+"\n", lineNo)
			flusher.Flush()
			continue
		}
		okCount++
		fmt.Fprintf(w, `{"line":%d,"status":"ok","id":"id-%s","project":%q,"cache":"miss"}`+"\n", lineNo, doc.Name, doc.Name)
		flusher.Flush()
		if doDie && lineNo >= die {
			f.mu.Lock()
			f.lineCounts = append(f.lineCounts, lineNo)
			f.mu.Unlock()
			panic(http.ErrAbortHandler) // kill the connection mid-stream
		}
	}
	f.mu.Lock()
	f.lineCounts = append(f.lineCounts, lineNo)
	f.mu.Unlock()
	fmt.Fprintf(w, `{"status":"summary","lines":%d,"ok":%d,"errors":%d}`+"\n", lineNo, okCount, lineNo-okCount)
	flusher.Flush()
}

func batchDocs(n int) [][]byte {
	docs := make([][]byte, n)
	for i := range docs {
		docs[i] = []byte(fmt.Sprintf(`{"name":"proj-%02d"}`, i))
	}
	return docs
}

// TestBatchResumesAfterConnectionDrop is the resume contract: the
// connection dies after 3 of 8 lines were acknowledged; the client must
// reconnect and send ONLY the 5 unacknowledged documents, and the final
// per-line outcomes must line up with the inputs with no offset skew.
func TestBatchResumesAfterConnectionDrop(t *testing.T) {
	fake := &batchFake{dieAfter: map[int]int{0: 3}}
	hs := httptest.NewServer(fake)
	defer hs.Close()

	c := New(Config{BaseURL: hs.URL, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})
	recordedSleeps(c)
	docs := batchDocs(8)
	res, err := c.BatchIngest(context.Background(), docs)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 8 || res.Errors != 0 {
		t.Fatalf("result = %d ok / %d errors, want 8/0", res.OK, res.Errors)
	}
	if res.Attempts != 2 || res.Resumed != 1 {
		t.Fatalf("attempts = %d, resumed = %d; want 2 attempts with 1 resume", res.Attempts, res.Resumed)
	}
	for i, line := range res.Lines {
		wantID := fmt.Sprintf("id-proj-%02d", i)
		if line.Status != "ok" || line.ID != wantID {
			t.Fatalf("line %d = %+v, want ok with id %q (offset skew?)", i, line, wantID)
		}
	}
	fake.mu.Lock()
	defer fake.mu.Unlock()
	if len(fake.lineCounts) != 2 || fake.lineCounts[0] != 3 || fake.lineCounts[1] != 5 {
		t.Fatalf("per-request line counts = %v, want [3 5] (resume resent the acknowledged prefix?)", fake.lineCounts)
	}
}

// TestBatchRetriesWholeRequestRefusal pins the other failure shape: a
// 503 before any line is acknowledged retries the whole batch with the
// server's hint honored.
func TestBatchRetriesWholeRequestRefusal(t *testing.T) {
	var refused bool
	fake := &batchFake{}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !refused {
			refused = true
			w.Header().Set("Retry-After", "2")
			http.Error(w, `{"error":"server is draining"}`, http.StatusServiceUnavailable)
			return
		}
		fake.ServeHTTP(w, r)
	}))
	defer hs.Close()

	c := New(Config{BaseURL: hs.URL, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})
	sleeps := recordedSleeps(c)
	res, err := c.BatchIngest(context.Background(), batchDocs(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 4 || res.Attempts != 2 || res.Resumed != 0 {
		t.Fatalf("result = %+v, want 4 ok over 2 attempts with no resume", res)
	}
	if len(*sleeps) != 1 || (*sleeps)[0] < 2*time.Second {
		t.Fatalf("sleeps = %v, want one sleep honoring the 2s hint", *sleeps)
	}
}

// TestBatchAgainstRealService round-trips the real batch endpoint: the
// fake-driven tests pin the resume mechanics, this one pins wire
// compatibility (field names, summary shape, cache states).
func TestBatchAgainstRealService(t *testing.T) {
	hs := httptest.NewServer(newRealService(t))
	defer hs.Close()
	c := New(Config{BaseURL: hs.URL})
	recordedSleeps(c)

	docs := workload(t, 5)
	res, err := c.BatchIngest(context.Background(), docs)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 5 || res.Errors != 0 || res.Attempts != 1 {
		t.Fatalf("first ingest = %+v, want 5 ok in one attempt", res)
	}
	for i, line := range res.Lines {
		if line.ID == "" || line.Pattern == "" || line.Cache == "" {
			t.Fatalf("line %d incomplete: %+v", i, line)
		}
	}

	// Resubmitting the same corpus must be all store hits.
	res, err = c.BatchIngest(context.Background(), docs)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range res.Lines {
		if line.Cache != "hit" {
			t.Fatalf("line %d cache = %q on resubmission, want hit", i, line.Cache)
		}
	}
}

// TestBatchRejectsEmptyDocuments pins the guard that keeps resume
// accounting sound (the server counts blank lines it then skips).
func TestBatchRejectsEmptyDocuments(t *testing.T) {
	c := New(Config{BaseURL: "http://127.0.0.1:0"})
	if _, err := c.BatchIngest(context.Background(), [][]byte{[]byte(`{"name":"a"}`), []byte("  ")}); err == nil {
		t.Fatal("empty document accepted; resume accounting would skew")
	}
}

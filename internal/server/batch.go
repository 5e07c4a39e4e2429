package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"schemaevo/internal/vcs"
)

// The streaming batch endpoint: POST /v1/projects:batch accepts
// newline-delimited JSON, one vcs.Repo per line, and streams back one
// NDJSON response line per input line as each analysis completes, then a
// summary line. A malformed or failed line is reported in place and does
// not stop the batch; per-line results flush immediately, so a client
// ingesting a large corpus sees progress in real time. Backpressure is
// blocking rather than 429: each line waits for a worker slot (bounded by
// the same semaphore as single submissions), which paces the producer by
// TCP flow control.

// batchDrainLimit bounds how many leftover request-body bytes the handler
// consumes after the scan stops early; past it the connection is poisoned
// for reuse instead (see the drain comment in handleBatch).
const batchDrainLimit = 1 << 20

// batchLineWire is one per-line response on the batch stream: an ok line
// carries the analysis summary, an error line the reason.
type batchLineWire struct {
	Line    int    `json:"line"`
	Status  string `json:"status"` // "ok" or "error"
	ID      string `json:"id,omitempty"`
	Project string `json:"project,omitempty"`
	Pattern string `json:"pattern,omitempty"`
	Cache   string `json:"cache,omitempty"`
	Error   string `json:"error,omitempty"`
}

// batchSummaryWire terminates the batch stream.
type batchSummaryWire struct {
	Status string `json:"status"` // always "summary"
	Lines  int    `json:"lines"`
	OK     int    `json:"ok"`
	Errors int    `json:"errors"`
}

// decodeBatchLine parses and validates one NDJSON input line. Factored
// out of the handler so the fuzzer can drive it directly.
func decodeBatchLine(line []byte) (*vcs.Repo, error) {
	repo, err := vcs.DecodeJSON(line)
	if err != nil {
		return nil, fmt.Errorf("invalid repository JSON: %w", err)
	}
	if err := repo.Validate(); err != nil {
		return nil, err
	}
	return repo, nil
}

// handleBatch is POST /v1/projects:batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	maxLine := s.cfg.MaxLineBytes
	if maxLine <= 0 {
		maxLine = 4 << 20
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	// Without full duplex, HTTP/1.x discards the unread request body as
	// soon as the first response line is written — which would truncate
	// any batch larger than the connection's read-ahead buffer.
	// Best-effort: HTTP/2 is already full-duplex.
	_ = rc.EnableFullDuplex()
	flusher, _ := w.(http.Flusher)
	// Per-line rendering goes through the append-based encoder into a
	// pooled buffer — byte-identical to json.Marshal (the conformance
	// test pins it) with zero per-line allocation at steady state.
	buf := lineBufPool.Get().(*[]byte)
	defer func() {
		*buf = (*buf)[:0]
		lineBufPool.Put(buf)
	}()
	flush := func(line []byte) {
		w.Write(line)
		if flusher != nil {
			flusher.Flush()
		}
	}
	emitLine := func(lw batchLineWire) {
		*buf = appendBatchLineWire((*buf)[:0], &lw)
		flush(*buf)
	}

	sc := bufio.NewScanner(r.Body)
	// The scanner's token cap is max(maxLine, cap(buf)), so the initial
	// buffer must not exceed the configured limit or it would override it.
	initial := 64 << 10
	if initial > maxLine {
		initial = maxLine
	}
	sc.Buffer(make([]byte, initial), maxLine)
	var lines, okCount, errCount int
	for sc.Scan() {
		lines++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		repo, err := decodeBatchLine(raw)
		if err != nil {
			errCount++
			emitLine(batchLineWire{Line: lines, Status: "error", Error: err.Error()})
			continue
		}
		// The stream as a whole has no deadline (its lifetime is
		// client-paced; see wrapStream) — the request budget applies to
		// each line's analysis, so a large corpus ingest with blocking
		// backpressure never times out mid-batch.
		lineCtx, cancel := context.WithTimeout(r.Context(), s.requestTimeout())
		out, state, err := s.submit(lineCtx, repo, true)
		cancel()
		if err != nil {
			errCount++
			emitLine(batchLineWire{Line: lines, Status: "error", Error: err.Error()})
			// A dead request context means the client is gone or the
			// server is shutting down — every further line would fail the
			// same way. A per-line timeout only fails its own line.
			if r.Context().Err() != nil {
				break
			}
			continue
		}
		okCount++
		// The summary fields ride on the rendered entry — no decode of the
		// stored result on warm lines.
		emitLine(batchLineWire{
			Line:    lines,
			Status:  "ok",
			ID:      out.id,
			Project: out.entry.project,
			Pattern: out.entry.pattern,
			Cache:   state,
		})
	}
	if err := sc.Err(); err != nil {
		lines++
		errCount++
		msg := err.Error()
		if errors.Is(err, bufio.ErrTooLong) {
			msg = fmt.Sprintf("line exceeds the %d-byte limit", maxLine)
		}
		emitLine(batchLineWire{Line: lines, Status: "error", Error: msg})
	}
	// In full-duplex mode the server no longer consumes leftover body
	// bytes after the handler returns; anything we leave unread would be
	// misparsed as the next request on this connection. Drain the
	// remainder (a no-op when the scan reached EOF) — but bounded in both
	// bytes and time, so a slow or hostile client cannot pin the handler
	// goroutine indefinitely. If the drain cannot reach EOF within the
	// bounds, poison further reads with an expired deadline: the server
	// then fails to reuse the connection and closes it instead of
	// misparsing the leftover.
	_ = rc.SetReadDeadline(time.Now().Add(s.requestTimeout()))
	if n, err := io.Copy(io.Discard, io.LimitReader(r.Body, batchDrainLimit)); err != nil || n == batchDrainLimit {
		_ = rc.SetReadDeadline(time.Now())
	}
	*buf = appendBatchSummaryWire((*buf)[:0], &batchSummaryWire{Status: "summary", Lines: lines, OK: okCount, Errors: errCount})
	flush(*buf)
}

// lineBufPool recycles batch NDJSON line buffers across requests.
var lineBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

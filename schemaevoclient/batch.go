package schemaevoclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// BatchLine is the final per-line outcome of one input document.
type BatchLine struct {
	Status  string `json:"status"` // "ok" or "error"
	ID      string `json:"id,omitempty"`
	Project string `json:"project,omitempty"`
	Pattern string `json:"pattern,omitempty"`
	Cache   string `json:"cache,omitempty"`
	Error   string `json:"error,omitempty"`
}

// BatchResult summarizes a converged BatchIngest.
type BatchResult struct {
	// Lines holds one outcome per input document, in input order.
	Lines []BatchLine
	// OK and Errors tally the outcomes.
	OK, Errors int
	// Attempts counts HTTP requests made; Resumed counts the retry
	// attempts that started past line 0 — i.e. reconnects that skipped
	// already-acknowledged lines instead of resending the whole batch.
	Attempts, Resumed int
}

// batchWireLine is one NDJSON response line (per-line or summary).
type batchWireLine struct {
	Line   int    `json:"line"`
	Status string `json:"status"`
	ID     string `json:"id"`
	// Project/Pattern/Cache/Error ride along for per-line records.
	Project string `json:"project"`
	Pattern string `json:"pattern"`
	Cache   string `json:"cache"`
	Error   string `json:"error"`
}

// BatchIngest streams the documents (service repository wire JSON, one
// per element — none may be empty) through POST /v1/projects:batch and
// runs to convergence: a connection dropped mid-stream is re-dialed and
// the batch RESUMES from the first unacknowledged line — the server
// answers per-line responses strictly in input order, so every response
// received acknowledges its line durably analyzed. Re-sent overlap
// (lines analyzed but unacknowledged when the connection died) dedupes
// server-side into store hits. Whole-request refusals (429/503, e.g. a
// draining service) back off with the server's Retry-After hint like
// every unary call. A line whose write meets a full disk comes back as
// an error line (counted in Errors; the project was not stored).
func (c *Client) BatchIngest(ctx context.Context, docs [][]byte) (*BatchResult, error) {
	for i, d := range docs {
		if len(bytes.TrimSpace(d)) == 0 {
			return nil, fmt.Errorf("schemaevoclient: batch document %d is empty (blank lines would break resume accounting)", i)
		}
	}
	res := &BatchResult{Lines: make([]BatchLine, len(docs))}
	acked := 0
	var lastErr error
	for attempt := 0; acked < len(docs); attempt++ {
		if c.maxAttempts() >= 0 && attempt >= c.maxAttempts() {
			return res, fmt.Errorf("schemaevoclient: batch: attempts exhausted with %d/%d lines acknowledged: %w",
				acked, len(docs), lastErr)
		}
		if attempt > 0 {
			var hint time.Duration
			var re *retryableError
			if errors.As(lastErr, &re) {
				hint = re.hint
			}
			if err := c.sleep(ctx, c.backoff(attempt-1, hint)); err != nil {
				return res, err
			}
		}
		if err := c.breaker.allow(ctx, c.sleep); err != nil {
			return res, err
		}

		if attempt > 0 && acked > 0 {
			res.Resumed++
		}
		n, err := c.batchAttempt(ctx, docs, acked, res)
		acked += n
		res.Attempts++
		if err == nil {
			c.breaker.success()
			if acked < len(docs) {
				// The server summarized early — it will not answer the
				// missing lines on this connection; re-send the remainder.
				lastErr = &retryableError{err: fmt.Errorf("schemaevoclient: batch stream ended with %d/%d lines acknowledged", acked, len(docs))}
				continue
			}
			break
		}
		var re *retryableError
		if !errors.As(err, &re) {
			return res, err
		}
		c.breaker.failure()
		lastErr = err
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
	}
	for _, l := range res.Lines {
		if l.Status == "ok" {
			res.OK++
		} else {
			res.Errors++
		}
	}
	return res, nil
}

// batchAttempt streams docs[from:] and records per-line outcomes as
// they arrive. It returns how many lines this attempt acknowledged
// (counted even when the connection then died) and whether the stream
// completed.
func (c *Client) batchAttempt(ctx context.Context, docs [][]byte, from int, res *BatchResult) (acked int, err error) {
	var body bytes.Buffer
	for _, d := range docs[from:] {
		body.Write(bytes.TrimSpace(d))
		body.WriteByte('\n')
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/projects:batch", &body)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
		return 0, &retryableError{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		apiErr := &APIError{Status: resp.StatusCode, Message: errorMessage(data)}
		if retryableStatus(resp.StatusCode) {
			return 0, &retryableError{err: apiErr, hint: retryAfterHint(resp)}
		}
		return 0, apiErr
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		var wire batchWireLine
		if err := json.Unmarshal(sc.Bytes(), &wire); err != nil {
			return acked, &retryableError{err: fmt.Errorf("schemaevoclient: malformed batch response line: %w", err)}
		}
		if wire.Status == "summary" {
			return acked, nil
		}
		idx := from + acked
		if wire.Line != acked+1 {
			// The server numbers THIS request's lines 1..k in input order;
			// a mismatch means our accounting would resume at the wrong
			// line — fail the batch rather than risk skipping a document.
			return acked, fmt.Errorf("schemaevoclient: batch response line %d arrived out of order (want %d)", wire.Line, acked+1)
		}
		if idx >= len(docs) {
			return acked, fmt.Errorf("schemaevoclient: server acknowledged more lines than were sent")
		}
		res.Lines[idx] = BatchLine{
			Status: wire.Status, ID: wire.ID, Project: wire.Project,
			Pattern: wire.Pattern, Cache: wire.Cache, Error: wire.Error,
		}
		acked++
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return acked, ctx.Err()
		}
		return acked, &retryableError{err: err}
	}
	// EOF without a summary line: the connection died between lines.
	return acked, &retryableError{err: errors.New("schemaevoclient: batch stream truncated before the summary line")}
}

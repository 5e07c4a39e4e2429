// Package schemaevoclient is the Go client for the schema-evolution
// analysis service (cmd/schemaevod). It wraps the HTTP API behind a
// retrying, fault-tolerant transport so callers see converged results,
// not the service's weather:
//
//   - every retryable failure — connection errors, 429 backpressure,
//     503 drain and disk-full refusals, transient 5xx — is retried with
//     capped exponential backoff and full jitter, always honoring the
//     server's Retry-After hint (the sleep is never shorter than the
//     hint, never longer than the jitter cap if that is larger);
//   - each attempt runs under its own deadline budget, so one hung
//     connection costs one attempt, not the whole call;
//   - a circuit breaker opens after consecutive failures and waits out
//     its cooldown before probing again — during an outage the client
//     stops hammering the service but still converges once it returns;
//   - batch ingest (BatchIngest) streams NDJSON and, when the
//     connection drops mid-stream, resumes from the last acknowledged
//     line instead of resending the whole batch (resent lines are
//     store hits server-side, so overlap is idempotent).
//
// Submissions and batch lines are raw JSON documents in the service's
// repository wire format; the client does not re-model them.
package schemaevoclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Config parameterizes a Client. The zero value needs only BaseURL.
type Config struct {
	// BaseURL locates the service, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient overrides the transport; nil selects a dedicated
	// http.Client with keep-alives.
	HTTPClient *http.Client
	// MaxAttempts bounds tries per call. 0 selects 8; negative means
	// unlimited (the call is then bounded only by its context).
	MaxAttempts int
	// BaseBackoff is the first retry's jitter ceiling. <= 0 selects 100ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential jitter ceiling. <= 0 selects 5s.
	MaxBackoff time.Duration
	// AttemptTimeout is the per-attempt deadline budget for unary calls
	// (batch streams are exempt — their lifetime is server-paced). <= 0
	// selects 30s.
	AttemptTimeout time.Duration
	// BreakerThreshold is the consecutive-failure count that opens the
	// circuit breaker. <= 0 selects 5.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker blocks attempts before
	// letting a probe through. <= 0 selects 2s.
	BreakerCooldown time.Duration
	// Seed drives the jitter; 0 selects 1 (deterministic by default —
	// vary it per process if cross-client synchronization matters).
	Seed int64
}

// Client is a retrying HTTP client for the analysis service. Construct
// with New; safe for concurrent use.
type Client struct {
	cfg     Config
	base    string
	hc      *http.Client
	breaker *breaker

	rngMu sync.Mutex
	rng   *rand.Rand

	// sleep is the backoff clock, injectable by tests.
	sleep func(ctx context.Context, d time.Duration) error
}

// New builds a Client for the service at cfg.BaseURL.
func New(cfg Config) *Client {
	c := &Client{cfg: cfg, base: strings.TrimRight(cfg.BaseURL, "/")}
	if c.hc = cfg.HTTPClient; c.hc == nil {
		c.hc = &http.Client{}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	c.rng = rand.New(rand.NewSource(seed))
	threshold := cfg.BreakerThreshold
	if threshold <= 0 {
		threshold = 5
	}
	cooldown := cfg.BreakerCooldown
	if cooldown <= 0 {
		cooldown = 2 * time.Second
	}
	c.breaker = &breaker{threshold: threshold, cooldown: cooldown}
	c.sleep = func(ctx context.Context, d time.Duration) error {
		if d <= 0 {
			return ctx.Err()
		}
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			return nil
		}
	}
	return c
}

// APIError is a terminal (non-retryable) response from the service.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("schemaevoclient: server answered %d: %s", e.Status, e.Message)
}

// ErrNotFound wraps 404 responses, so callers can branch with errors.Is.
var ErrNotFound = errors.New("schemaevoclient: not found")

// Project is a decoded analysis result; Raw preserves the full response
// body for callers that need fields beyond the headline ones.
type Project struct {
	SchemaVersion int    `json:"schema_version"`
	ID            string `json:"id"`
	Name          string `json:"project"`
	Pattern       string `json:"pattern"`
	Family        string `json:"family"`
	Exact         bool   `json:"exact"`

	Raw json.RawMessage `json:"-"`
}

// Health is the decoded GET /healthz body.
type Health struct {
	Status         string   `json:"status"`
	Projects       int      `json:"projects"`
	Stored         int      `json:"stored"`
	PendingRepairs int      `json:"pending_repairs"`
	QueueDepth     int      `json:"queue_depth"`
	Reasons        []string `json:"reasons"`
}

// maxAttempts resolves the per-call attempt bound; <0 means unlimited.
func (c *Client) maxAttempts() int {
	if c.cfg.MaxAttempts == 0 {
		return 8
	}
	return c.cfg.MaxAttempts
}

func (c *Client) attemptTimeout() time.Duration {
	if c.cfg.AttemptTimeout > 0 {
		return c.cfg.AttemptTimeout
	}
	return 30 * time.Second
}

// backoff computes the sleep before retry number attempt (0-based):
// full jitter over an exponentially growing ceiling, floored by the
// server's Retry-After hint when one was given.
func (c *Client) backoff(attempt int, hint time.Duration) time.Duration {
	base := c.cfg.BaseBackoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	cap := c.cfg.MaxBackoff
	if cap <= 0 {
		cap = 5 * time.Second
	}
	ceiling := base << uint(attempt)
	if ceiling <= 0 || ceiling > cap { // <= 0 guards shift overflow
		ceiling = cap
	}
	c.rngMu.Lock()
	d := time.Duration(c.rng.Int63n(int64(ceiling) + 1))
	c.rngMu.Unlock()
	if d < hint {
		d = hint
	}
	return d
}

// retryAfterHint parses a response's Retry-After header (seconds form).
func retryAfterHint(resp *http.Response) time.Duration {
	if resp == nil {
		return 0
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// retryableStatus reports whether a status code is worth another
// attempt: backpressure, drain and disk-full refusals, and transient
// server faults. Client errors (4xx other than 429) are terminal.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests,
		http.StatusInternalServerError,
		http.StatusBadGateway,
		http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// errorMessage extracts the service's structured error body (falling
// back to the raw bytes).
func errorMessage(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(body))
}

// do runs one unary request to convergence: breaker gate, per-attempt
// deadline, retry with hinted jittered backoff. It returns the terminal
// response body and status.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	status, _, data, err := c.doCond(ctx, method, path, body, "")
	return status, data, err
}

// doCond is do with conditional-request support: etag, when non-empty,
// is sent as If-None-Match, and the response headers are returned so
// callers can capture validators. A 304 answer is a success.
func (c *Client) doCond(ctx context.Context, method, path string, body []byte, etag string) (int, http.Header, []byte, error) {
	var lastErr error
	for attempt := 0; c.maxAttempts() < 0 || attempt < c.maxAttempts(); attempt++ {
		if attempt > 0 {
			// lastErr carries the hint captured from the previous attempt.
			var hint time.Duration
			var re *retryableError
			if errors.As(lastErr, &re) {
				hint = re.hint
			}
			if err := c.sleep(ctx, c.backoff(attempt-1, hint)); err != nil {
				return 0, nil, nil, err
			}
		}
		if err := c.breaker.allow(ctx, c.sleep); err != nil {
			return 0, nil, nil, err
		}
		status, header, data, err := c.attempt(ctx, method, path, body, etag)
		if err == nil {
			c.breaker.success()
			return status, header, data, nil
		}
		var re *retryableError
		if !errors.As(err, &re) {
			// Terminal: a 4xx or the caller's context. The service
			// answered, so the breaker stays untouched — only retryable
			// (transport / transient 5xx) failures feed it.
			return status, header, data, err
		}
		c.breaker.failure()
		lastErr = err
		if ctx.Err() != nil {
			return 0, nil, nil, ctx.Err()
		}
	}
	return 0, nil, nil, fmt.Errorf("schemaevoclient: %s %s: attempts exhausted: %w", method, path, lastErr)
}

// retryableError marks an attempt failure the retry loop should absorb,
// carrying the server's backoff hint when one was given.
type retryableError struct {
	err  error
	hint time.Duration
}

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

// attempt issues one try of a unary call under its own deadline budget.
// etag, when non-empty, rides as If-None-Match; the matching 304 answer
// counts as success (it only ever arrives when the caller asked for it).
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, etag string) (int, http.Header, []byte, error) {
	actx, cancel := context.WithTimeout(ctx, c.attemptTimeout())
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return 0, nil, nil, ctx.Err()
		}
		// Transport failure or per-attempt timeout: retryable.
		return 0, nil, nil, &retryableError{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		if ctx.Err() != nil {
			return 0, nil, nil, ctx.Err()
		}
		return 0, nil, nil, &retryableError{err: err}
	}
	if (resp.StatusCode >= 200 && resp.StatusCode < 300) || resp.StatusCode == http.StatusNotModified {
		return resp.StatusCode, resp.Header, data, nil
	}
	apiErr := &APIError{Status: resp.StatusCode, Message: errorMessage(data)}
	if retryableStatus(resp.StatusCode) {
		return resp.StatusCode, resp.Header, data, &retryableError{err: apiErr, hint: retryAfterHint(resp)}
	}
	if resp.StatusCode == http.StatusNotFound {
		return resp.StatusCode, resp.Header, data, fmt.Errorf("%w: %s", ErrNotFound, apiErr.Message)
	}
	return resp.StatusCode, resp.Header, data, apiErr
}

// decodeProject parses a project wire body.
func decodeProject(data []byte) (*Project, error) {
	var p Project
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("schemaevoclient: decoding project body: %w", err)
	}
	p.Raw = append(json.RawMessage(nil), data...)
	return &p, nil
}

// Submit sends one repository history (service wire JSON) for analysis
// and returns the converged result.
func (c *Client) Submit(ctx context.Context, repoJSON []byte) (*Project, error) {
	_, data, err := c.do(ctx, http.MethodPost, "/v1/projects", repoJSON)
	if err != nil {
		return nil, err
	}
	return decodeProject(data)
}

// Get fetches a project's analysis by ID. Unknown IDs return an error
// wrapping ErrNotFound.
func (c *Client) Get(ctx context.Context, id string) (*Project, error) {
	_, data, err := c.do(ctx, http.MethodGet, "/v1/projects/"+id, nil)
	if err != nil {
		return nil, err
	}
	return decodeProject(data)
}

// GetConditional fetches a project's analysis by ID, revalidating a
// cached copy: etag, when non-empty, is the validator from a previous
// fetch (the response's ETag header). When the representation is
// unchanged the server answers 304 with no body and GetConditional
// returns (nil, etag, true, nil); otherwise it returns the decoded
// project, its current validator, and notModified=false. Unknown IDs
// return an error wrapping ErrNotFound.
func (c *Client) GetConditional(ctx context.Context, id, etag string) (p *Project, currentETag string, notModified bool, err error) {
	status, header, data, err := c.doCond(ctx, http.MethodGet, "/v1/projects/"+id, nil, etag)
	if err != nil {
		return nil, "", false, err
	}
	if status == http.StatusNotModified {
		return nil, header.Get("ETag"), true, nil
	}
	p, err = decodeProject(data)
	if err != nil {
		return nil, "", false, err
	}
	return p, header.Get("ETag"), false, nil
}

// Delete removes a submitted project. Unknown IDs return an error
// wrapping ErrNotFound.
func (c *Client) Delete(ctx context.Context, id string) error {
	_, _, err := c.do(ctx, http.MethodDelete, "/v1/projects/"+id, nil)
	return err
}

// Health fetches /healthz. It reaches the service even while degraded
// (the endpoint stays 200; the body carries the state).
func (c *Client) Health(ctx context.Context) (*Health, error) {
	_, data, err := c.do(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		return nil, err
	}
	var h Health
	if err := json.Unmarshal(data, &h); err != nil {
		return nil, fmt.Errorf("schemaevoclient: decoding healthz body: %w", err)
	}
	return &h, nil
}

// Ready reports the /readyz routing signal: true when the service
// accepts writes. Unlike the other calls it does NOT retry a 503 —
// "not ready" is the answer, not a failure. Transport errors still
// retry.
func (c *Client) Ready(ctx context.Context) (bool, error) {
	var lastErr error
	for attempt := 0; c.maxAttempts() < 0 || attempt < c.maxAttempts(); attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, c.backoff(attempt-1, 0)); err != nil {
				return false, err
			}
		}
		status, _, _, err := c.attempt(ctx, http.MethodGet, "/readyz", nil, "")
		if err == nil {
			return true, nil
		}
		if status == http.StatusServiceUnavailable {
			return false, nil
		}
		var re *retryableError
		if !errors.As(err, &re) {
			return false, err
		}
		lastErr = err
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
	}
	return false, fmt.Errorf("schemaevoclient: readyz: attempts exhausted: %w", lastErr)
}

// Metrics fetches the raw /metrics telemetry report JSON.
func (c *Client) Metrics(ctx context.Context) (json.RawMessage, error) {
	_, data, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	return data, nil
}

package server

// The health state machine summarizes the service's operational condition
// for probes and load balancers:
//
//	healthy  → everything durable and accepting work
//	degraded → serving, but impaired: stored projects await repair
//	           (quarantined results the scrubber has not healed yet) or
//	           the analysis workers are saturated
//	read-only→ the store refuses durable writes (disk budget exhausted
//	           or ENOSPC observed); reads keep serving,
//	           write endpoints answer 503 + Retry-After
//	draining → lame-duck shutdown; every request is answered 503 by the
//	           drain gate before any handler runs
//
// GET /healthz is liveness plus the full picture (always 200 while the
// process serves; the body carries the state). GET /readyz is the routing
// signal: 200 for healthy/degraded, 503 for read-only/draining.

import (
	"context"
	"fmt"
	"net/http"

	"schemaevo/internal/store"
)

// HealthState is the service's operational condition, ordered by
// severity.
type HealthState int

const (
	StateHealthy HealthState = iota
	StateDegraded
	StateReadOnly
	StateDraining
)

func (st HealthState) String() string {
	switch st {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateReadOnly:
		return "read-only"
	case StateDraining:
		return "draining"
	}
	return fmt.Sprintf("HealthState(%d)", int(st))
}

// healthState computes the current state with its reasons and publishes
// the health gauge (0 healthy … 3 draining).
func (s *Server) healthState() (HealthState, []string) {
	st := StateHealthy
	var reasons []string
	switch {
	case s.draining.Load():
		st = StateDraining
		reasons = append(reasons, "drain in progress")
	case s.store.ReadOnly():
		st = StateReadOnly
		reasons = append(reasons, "store refuses writes (disk budget or ENOSPC)")
	default:
		if missing := s.store.StatsSnapshot().MissingResults; missing > 0 {
			st = StateDegraded
			reasons = append(reasons, fmt.Sprintf("%d stored projects await repair", missing))
		}
		if len(s.sem) == cap(s.sem) {
			st = StateDegraded
			reasons = append(reasons, "analysis workers saturated")
		}
	}
	s.tel.SetGauge("health.state", int64(st))
	return st, reasons
}

// HealthState returns the current state (recomputed, gauge published) —
// the programmatic twin of /healthz for embedding callers and tests.
func (s *Server) HealthState() HealthState {
	st, _ := s.healthState()
	return st
}

// healthzWire is the GET /healthz body. Projects/Stored keep their PR-4
// names (external tooling parses them); the health fields are additive.
type healthzWire struct {
	Status         string   `json:"status"`
	Projects       int      `json:"projects"`
	Stored         int      `json:"stored"`
	ReadOnly       bool     `json:"read_only"`
	PendingRepairs int      `json:"pending_repairs"`
	QueueDepth     int      `json:"queue_depth"`
	Reasons        []string `json:"reasons,omitempty"`
}

// handleHealthz is GET /healthz: liveness plus the full health picture.
// It answers 200 whenever the process serves at all — the state lives in
// the body; routing decisions belong to /readyz. (While draining, the
// drain gate answers 503 before this handler runs.)
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st, reasons := s.healthState()
	stats := s.store.StatsSnapshot()
	writeJSON(w, http.StatusOK, healthzWire{
		Status:         st.String(),
		Projects:       s.corpus.Len(),
		Stored:         s.store.Len(),
		ReadOnly:       stats.ReadOnly,
		PendingRepairs: stats.MissingResults,
		QueueDepth:     len(s.sem),
		Reasons:        reasons,
	})
}

// readyzWire is the GET /readyz body.
type readyzWire struct {
	Status  string   `json:"status"` // "ready" or "unavailable"
	State   string   `json:"state"`
	Reasons []string `json:"reasons,omitempty"`
}

// handleReadyz is GET /readyz, the routing signal: 200 while healthy or
// degraded (an impaired replica still serves correctly), 503 + Retry-
// After in read-only mode (a naive balancer must stop sending writes;
// deployments that can route reads separately should key off the
// /healthz state instead) — and 503 from the drain gate while draining.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st, reasons := s.healthState()
	if st >= StateReadOnly {
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		writeJSON(w, http.StatusServiceUnavailable, readyzWire{Status: "unavailable", State: st.String(), Reasons: reasons})
		return
	}
	writeJSON(w, http.StatusOK, readyzWire{Status: "ready", State: st.String(), Reasons: reasons})
}

// scrubConfig assembles the store scrubber's configuration with the
// server's repair callback: re-analyze the project from its persisted
// source snapshot (shared with on-demand GET repair — singleflighted,
// semaphore-bounded) and write the result back.
func (s *Server) scrubConfig() store.ScrubConfig {
	return store.ScrubConfig{
		Interval:       s.cfg.ScrubInterval,
		Pace:           s.cfg.ScrubPace,
		DiskFloorBytes: s.cfg.DiskLowBytes,
		Repair: func(ctx context.Context, id string) error {
			_, ok, err := s.reanalyze(ctx, id)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("server: no source snapshot for %s", id)
			}
			return nil
		},
	}
}

// ScrubNow runs one synchronous scrub pass with the server's repair
// callback — the deterministic trigger tests and operators use; the
// background loop (Config.ScrubInterval) runs the same pass on a timer.
func (s *Server) ScrubNow(ctx context.Context) store.ScrubReport {
	return s.store.ScrubOnce(ctx, s.scrubConfig())
}

// writeReadOnly answers a write request while the store cannot accept
// durable writes: 503 + Retry-After — the same shape as the drain gate,
// so retrying clients converge once space recovers.
func (s *Server) writeReadOnly(w http.ResponseWriter) {
	w.Header().Set("Retry-After", s.retryAfterSeconds())
	writeError(w, http.StatusServiceUnavailable, "store is in read-only mode", nil)
}

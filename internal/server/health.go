package server

// The health state machine summarizes the service's operational condition
// for probes and load balancers:
//
//	healthy  → everything durable and accepting work
//	degraded → serving, but impaired: stored projects await repair
//	           (quarantined results the scrubber has not healed yet) or
//	           the analysis workers are saturated
//	draining → lame-duck shutdown; every request is answered 503 by the
//	           drain gate before any handler runs
//
// A full disk is not a state: a write whose flush meets ENOSPC fails on
// its own with 503 + Retry-After (writeDiskFull), and every other request
// is served as before.
//
// GET /healthz is liveness plus the full picture (always 200 while the
// process serves; the body carries the state). GET /readyz is the routing
// signal: 200 for healthy/degraded, 503 while draining.

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
	StateDraining
)

func (st HealthState) String() string {
	switch st {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateDraining:
		return "draining"
	}
	return fmt.Sprintf("HealthState(%d)", int(st))
}

// healthState computes the current state with its reasons and the count
// of stored projects awaiting repair, from one store snapshot, and
// publishes the health gauge (0 healthy … 2 draining).
func (s *Server) healthState() (st HealthState, reasons []string, pending int) {
	pending = s.store.StatsSnapshot().MissingResults
	switch {
	case s.draining.Load():
		st = StateDraining
		reasons = append(reasons, "drain in progress")
	default:
		if pending > 0 {
			st = StateDegraded
			reasons = append(reasons, fmt.Sprintf("%d stored projects await repair", pending))
		}
		if len(s.sem) == cap(s.sem) {
			st = StateDegraded
			reasons = append(reasons, "analysis workers saturated")
		}
	}
	s.tel.SetGauge("health.state", int64(st))
	return st, reasons, pending
}

// HealthState returns the current state (recomputed, gauge published) —
// the programmatic twin of /healthz for embedding callers and tests.
func (s *Server) HealthState() HealthState {
	st, _, _ := s.healthState()
	return st
}

// healthzWire is the GET /healthz body. Projects/Stored keep their PR-4
// names (external tooling parses them); the health fields are additive.
type healthzWire struct {
	Status         string   `json:"status"`
	Projects       int      `json:"projects"`
	Stored         int      `json:"stored"`
	PendingRepairs int      `json:"pending_repairs"`
	QueueDepth     int      `json:"queue_depth"`
	Reasons        []string `json:"reasons,omitempty"`
}

// handleHealthz is GET /healthz: liveness plus the full health picture.
// It answers 200 whenever the process serves at all — the state lives in
// the body; routing decisions belong to /readyz. (While draining, the
// drain gate answers 503 before this handler runs.)
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st, reasons, pending := s.healthState()
	writeJSON(w, http.StatusOK, healthzWire{
		Status:         st.String(),
		Projects:       s.corpus.Len(),
		Stored:         s.store.Len(),
		PendingRepairs: pending,
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
// After while draining — answered by the drain gate, or here when the
// drain began after the gate let the probe through.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st, reasons, _ := s.healthState()
	if st == StateDraining {
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
		Interval: s.cfg.ScrubInterval,
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

// writeDiskFull answers a write whose flush met a full disk: it did not
// land, so 503 + Retry-After — the same shape as the drain gate, so
// retrying clients converge once space recovers.
func (s *Server) writeDiskFull(w http.ResponseWriter) {
	w.Header().Set("Retry-After", s.retryAfterSeconds())
	writeError(w, http.StatusServiceUnavailable, "store is out of disk space", nil)
}

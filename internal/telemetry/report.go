package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// ReportSchemaVersion identifies the report layout; consumers should
// reject versions they do not understand. Bump it whenever a field is
// added, removed, or changes meaning.
const ReportSchemaVersion = 7

// StageReport is one stage's aggregated telemetry. Field order is part
// of the report contract and is pinned by a golden test.
type StageReport struct {
	Name string `json:"name"`
	// Workers is the configured pool size.
	Workers int64 `json:"workers"`
	// Jobs and Errors count processed and failed jobs.
	Jobs   int64 `json:"jobs"`
	Errors int64 `json:"errors"`
	// BusyUS is total stage-function wall time, QueueWaitUS total time
	// jobs sat in the stage's input queue.
	BusyUS      int64 `json:"busy_us"`
	QueueWaitUS int64 `json:"queue_wait_us"`
	// MaxOccupancy is the busy-worker high-water mark; MeanOccupancy is
	// BusyUS over the run's elapsed time (average busy workers).
	MaxOccupancy  int64   `json:"max_occupancy"`
	MeanOccupancy float64 `json:"mean_occupancy"`
	// P50US..MaxUS summarize the per-job duration histogram (bucket
	// upper bounds, so values are power-of-two microseconds).
	P50US int64 `json:"p50_us"`
	P90US int64 `json:"p90_us"`
	P99US int64 `json:"p99_us"`
	MaxUS int64 `json:"max_us"`
}

// CacheReport aggregates the result cache's telemetry.
type CacheReport struct {
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Writes       int64 `json:"writes"`
	Errors       int64 `json:"errors"`
	Corrupt      int64 `json:"corrupt"`
	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`
	// HitRate is Hits/(Hits+Misses), 0 when the cache saw no traffic.
	HitRate float64 `json:"hit_rate"`
}

// StoreReport aggregates the two-tier result store's telemetry.
type StoreReport struct {
	HotHits     int64 `json:"hot_hits"`
	HotMisses   int64 `json:"hot_misses"`
	DiskHits    int64 `json:"disk_hits"`
	DiskMisses  int64 `json:"disk_misses"`
	Appends     int64 `json:"appends"`
	Flushes     int64 `json:"flushes"`
	FlushErrors int64 `json:"flush_errors"`
	Compactions int64 `json:"compactions"`
	Quarantined int64 `json:"quarantined"`
	Evictions   int64 `json:"evictions"`
	// Reanalyses counts projects recomputed from their persisted source
	// because the stored result was evicted or quarantined.
	Reanalyses int64 `json:"reanalyses"`
	// ScrubPasses/ScrubbedRecords/Repairs summarize the background
	// scrubber: full passes completed, records proactively verified, and
	// quarantined entries restored to service by the repair callback.
	ScrubPasses     int64 `json:"scrub_passes"`
	ScrubbedRecords int64 `json:"scrubbed_records"`
	Repairs         int64 `json:"repairs"`
	// DiskFullEvents counts ENOSPC incidents on the write path.
	DiskFullEvents int64 `json:"disk_full_events"`
	BytesRead      int64 `json:"bytes_read"`
	BytesWritten   int64 `json:"bytes_written"`
	// HitRate is (HotHits+DiskHits)/(HotHits+DiskHits+DiskMisses): the
	// fraction of lookups any tier answered. 0 with no traffic.
	HitRate float64 `json:"hit_rate"`
}

// RenderReport aggregates the HTTP render cache's telemetry: how often
// pre-rendered response bytes were served without decode or marshal, and
// how the cache churned (version 4 of the report added this block).
type RenderReport struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Writes        int64 `json:"writes"`
	Invalidations int64 `json:"invalidations"`
	Evictions     int64 `json:"evictions"`
	// NotModified counts conditional GETs answered 304 with no body.
	NotModified  int64 `json:"not_modified"`
	BytesServed  int64 `json:"bytes_served"`
	BytesWritten int64 `json:"bytes_written"`
	// HitRate is Hits/(Hits+Misses), 0 when the cache saw no traffic.
	HitRate float64 `json:"hit_rate"`
}

// EventCount is one named event tally (a fault site/kind pair, a
// degradation taxonomy kind).
type EventCount struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
}

// Report is the machine-readable summary of a collector's tallies. Its
// JSON field order is stable (struct order) and its slices are always
// present (never null), so two reports of the same toolchain version are
// structurally identical — the property the -telemetry-json golden test pins.
type Report struct {
	SchemaVersion int   `json:"schema_version"`
	ElapsedUS     int64 `json:"elapsed_us"`
	// Stages appear in registration order (pipeline order).
	Stages []StageReport `json:"stages"`
	Cache  CacheReport   `json:"cache"`
	Store  StoreReport   `json:"store"`
	Render RenderReport  `json:"render"`
	// Faults and Degradation are sorted by name.
	Faults      []EventCount `json:"faults"`
	Degradation []EventCount `json:"degradation"`
	// Gauges are last-write-wins point-in-time values (health state,
	// read-only flag), sorted by name.
	Gauges []EventCount `json:"gauges"`
}

// Snapshot renders the collector's current state as a Report. Nil-safe:
// a nil collector yields a nil report.
func (c *Collector) Snapshot() *Report {
	if c == nil {
		return nil
	}
	elapsed := time.Since(c.start)
	r := &Report{
		SchemaVersion: ReportSchemaVersion,
		ElapsedUS:     elapsed.Microseconds(),
		Stages:        []StageReport{},
		Faults:        []EventCount{},
		Degradation:   []EventCount{},
		Gauges:        []EventCount{},
	}

	c.mu.Lock()
	stages := append([]*Stage(nil), c.stages...)
	r.Faults = sortedEvents(c.faults)
	r.Degradation = sortedEvents(c.degrade)
	r.Gauges = sortedEvents(c.gauges)
	c.mu.Unlock()

	for _, s := range stages {
		sr := StageReport{
			Name:         s.name,
			Workers:      s.workers.Load(),
			Jobs:         s.jobs.Load(),
			Errors:       s.errs.Load(),
			BusyUS:       time.Duration(s.busyNS.Load()).Microseconds(),
			QueueWaitUS:  time.Duration(s.waitNS.Load()).Microseconds(),
			MaxOccupancy: s.maxAct.Load(),
			P50US:        s.hist.quantile(0.50).Microseconds(),
			P90US:        s.hist.quantile(0.90).Microseconds(),
			P99US:        s.hist.quantile(0.99).Microseconds(),
			MaxUS:        s.hist.quantile(1.00).Microseconds(),
		}
		if elapsed > 0 {
			sr.MeanOccupancy = float64(s.busyNS.Load()) / float64(elapsed.Nanoseconds())
		}
		r.Stages = append(r.Stages, sr)
	}

	for k, row := range counterTable {
		*row.field(r) = c.counters.Load(Counter(k))
	}
	if probes := r.Cache.Hits + r.Cache.Misses; probes > 0 {
		r.Cache.HitRate = float64(r.Cache.Hits) / float64(probes)
	}
	if hits := r.Store.HotHits + r.Store.DiskHits; hits+r.Store.DiskMisses > 0 {
		r.Store.HitRate = float64(hits) / float64(hits+r.Store.DiskMisses)
	}
	if probes := r.Render.Hits + r.Render.Misses; probes > 0 {
		r.Render.HitRate = float64(r.Render.Hits) / float64(probes)
	}
	return r
}

func sortedEvents(m map[string]int64) []EventCount {
	out := make([]EventCount, 0, len(m))
	for k, v := range m {
		out = append(out, EventCount{Name: k, Count: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteJSON writes the report as indented JSON with a trailing newline.
// Nil-safe: a nil collector writes the JSON null literal.
func (c *Collector) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(c.Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: encoding report: %w", err)
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// WriteTraceJSONL writes spans as one JSON object per line, in the order
// given (pipeline.Run returns them sorted by start offset, project and
// stage) — loadable into any trace viewer or joinable with the run
// report by project name.
func WriteTraceJSONL(w io.Writer, spans []Span) error {
	for _, sp := range spans {
		data, err := json.Marshal(sp)
		if err != nil {
			return fmt.Errorf("telemetry: encoding span: %w", err)
		}
		if _, err := w.Write(append(data, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// Summary renders a compact human-readable digest of the report: one
// line per stage plus the cache line, for CLI output.
func (r *Report) Summary() string {
	if r == nil {
		return ""
	}
	var sb strings.Builder
	for _, s := range r.Stages {
		fmt.Fprintf(&sb, "telemetry: stage %-10s %5d jobs (%d errors) busy %v, wait %v, occupancy max %d / mean %.2f\n",
			s.Name, s.Jobs, s.Errors,
			time.Duration(s.BusyUS)*time.Microsecond,
			time.Duration(s.QueueWaitUS)*time.Microsecond,
			s.MaxOccupancy, s.MeanOccupancy)
	}
	fmt.Fprintf(&sb, "telemetry: cache %d hits / %d misses (%.0f%% hit rate), %d writes, %d corrupt\n",
		r.Cache.Hits, r.Cache.Misses, r.Cache.HitRate*100, r.Cache.Writes, r.Cache.Corrupt)
	return sb.String()
}

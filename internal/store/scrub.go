package store

// The background scrubber is the store's self-healing loop. Read-time
// verification (Get/Source) only finds corruption when a record is
// demanded — a latently rotten record of a cold project sits undetected
// until the read that needed it. The scrubber walks every shard ahead of
// demand: it CRC-verifies each live record at a bounded pace, quarantines
// damage the moment it exists rather than the moment it hurts, and hands
// entries that lost their result to a repair callback so they return to
// service without operator action. A pass also gives each shard a
// write-independent compaction opportunity (quarantining grows garbage,
// and an idle store would otherwise never reach a compaction trigger) and
// runs the disk-budget watchdog that degrades the store to read-only
// before ENOSPC can tear a write.
//
// Fault sites: "store.scrub" (KindErr skips an entry's verification for
// one pass; KindDelay stalls it; KindCorrupt — keyed id@seq — makes the
// scrubber treat the result record as latently corrupt, the deterministic
// chaos hook the self-healing tests drive), plus "store.slowdisk"
// (KindDelay, a slow device on the scrub read path).

import (
	"context"
	"fmt"
	"sort"
	"time"

	"schemaevo/internal/faultinject"
	"schemaevo/internal/telemetry"
)

// ScrubConfig parameterizes a scrub pass (ScrubOnce) or the background
// loop (StartScrubber).
type ScrubConfig struct {
	// Interval is the pause between background passes. <= 0 selects 30s.
	Interval time.Duration
	// Pace is the pause between per-record verifications, rate-limiting
	// the scrubber's read load against foreground traffic. < 0 disables
	// pacing; 0 selects 500µs.
	Pace time.Duration
	// Repair, when set, is invoked — outside all store locks, after the
	// verification walk — for each live entry whose source snapshot is
	// readable but whose result is not (quarantined during this pass or
	// any time before). It should re-analyze the project and write the
	// result back with PutResult. Repairs are skipped in read-only mode.
	Repair func(ctx context.Context, id string) error
	// DiskFloorBytes enables the disk-budget watchdog: when the segment
	// directory's filesystem has fewer free bytes, the store flips to
	// read-only; it becomes writable again once free space recovers to
	// twice the floor (hysteresis, so a store hovering at the floor does
	// not flap). <= 0 disables.
	DiskFloorBytes int64
	// FreeSpace overrides the free-space probe for tests; nil selects the
	// platform's statfs (watchdog disabled where unsupported).
	FreeSpace func(dir string) (int64, error)
}

// ScrubReport summarizes one pass.
type ScrubReport struct {
	// Verified counts records read clean; Corrupt counts records found
	// damaged and quarantined by this pass.
	Verified int
	Corrupt  int
	// Repaired counts entries whose result is readable again after the
	// repair callback; RepairFailed those still missing one (callback
	// error, or no callback configured while repairs were needed).
	Repaired     int
	RepairFailed int
	// FreeBytes is the watchdog's last probe, -1 when disabled/unknown.
	FreeBytes int64
	// ReadOnly is the store's mode as the pass ended.
	ReadOnly bool
}

// ScrubOnce runs one full scrub pass synchronously: watchdog, per-shard
// verification walk, compaction opportunity, then repairs. It is the
// deterministic entry point tests (and the server's manual trigger) use;
// StartScrubber runs the same pass on a timer.
func (s *Store) ScrubOnce(ctx context.Context, cfg ScrubConfig) ScrubReport {
	rep := ScrubReport{FreeBytes: -1}
	s.checkDiskBudget(cfg, &rep)

	pace := cfg.Pace
	if pace == 0 {
		pace = 500 * time.Microsecond
	}
	var repairIDs []string
	var frame []byte // every record of the pass is read into this buffer
	for _, sh := range s.shards {
		if ctx.Err() != nil {
			break
		}
		sh.mu.Lock()
		disk := sh.file != nil
		ids := make([]string, 0, len(sh.byID))
		for id := range sh.byID {
			ids = append(ids, id)
		}
		sh.mu.Unlock()
		if !disk {
			continue
		}
		sort.Strings(ids)
		for _, id := range ids {
			if ctx.Err() != nil {
				break
			}
			if s.verifyEntry(ctx, sh, id, &rep, &frame) {
				repairIDs = append(repairIDs, id)
			}
			if pace > 0 {
				select {
				case <-ctx.Done():
				case <-time.After(pace):
				}
			}
		}
		sh.mu.Lock()
		s.maybeCompactLocked(sh)
		sh.mu.Unlock()
	}

	// Repairs run outside every lock: the callback re-enters the store
	// (Source, PutResult) and typically a whole analysis pipeline. In
	// read-only mode the write-back cannot land, so don't burn the work.
	for _, id := range repairIDs {
		if ctx.Err() != nil {
			break
		}
		if s.ReadOnly() {
			rep.RepairFailed++
			continue
		}
		// Cheapest repair first: only the durable record rotted — when the
		// hot tier still holds the result, rewriting it restores durability
		// without re-analysis. Otherwise re-derive it via the callback.
		if data, ok := s.hot.get(id); ok {
			if err := s.PutResult(id, data); err == nil && s.resultReadable(id) {
				rep.Repaired++
				s.cnt.Add(telemetry.StoreRepairs, 1)
				continue
			}
		}
		if cfg.Repair == nil {
			rep.RepairFailed++
			continue
		}
		if err := cfg.Repair(ctx, id); err != nil || !s.resultReadable(id) {
			rep.RepairFailed++
			continue
		}
		rep.Repaired++
		s.cnt.Add(telemetry.StoreRepairs, 1)
	}

	s.cnt.Add(telemetry.StoreScrubPasses, 1)
	rep.ReadOnly = s.ReadOnly()
	return rep
}

// verifyEntry CRC-checks one live entry's records ahead of demand,
// quarantining any damage, and reports whether the entry needs repair
// (readable source, no readable result). Records are read into *frame,
// the pass's one buffer, which grows to the largest record verified.
func (s *Store) verifyEntry(ctx context.Context, sh *shard, id string, rep *ScrubReport, frame *[]byte) (needRepair bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m := sh.byID[id]
	if m == nil || sh.file == nil {
		return false // deleted or superseded since the snapshot
	}
	switch s.fault.At("store.scrub", id) {
	case faultinject.KindErr:
		// A transient read error: skip this entry for one pass rather
		// than quarantining records that may be perfectly healthy.
		return false
	case faultinject.KindDelay:
		s.fault.Sleep(ctx)
	}
	if s.fault.At("store.slowdisk", "scrub:"+id) == faultinject.KindDelay {
		s.fault.Sleep(ctx)
	}
	if m.src.ok() {
		s.cnt.Add(telemetry.StoreScrubbedRecords, 1)
		var err error
		if *frame, err = sh.readFrameLocked(*frame, m.src); err != nil {
			s.quarantineLocked(sh, &m.src)
			rep.Corrupt++
		} else {
			rep.Verified++
		}
	}
	if m.res.ok() {
		s.cnt.Add(telemetry.StoreScrubbedRecords, 1)
		var err error
		*frame, err = sh.readFrameLocked(*frame, m.res)
		// Injected latent corruption, keyed by id@seq: a repaired record
		// carries a new sequence, so the same entry re-rolls instead of
		// faulting forever.
		if err == nil && s.fault != nil && s.fault.At("store.scrub", fmt.Sprintf("%s@%d", id, m.res.seq)) == faultinject.KindCorrupt {
			err = &faultinject.Error{Site: "store.scrub", Key: id}
		}
		if err != nil {
			s.quarantineLocked(sh, &m.res)
			rep.Corrupt++
		} else {
			rep.Verified++
		}
	}
	return m.src.ok() && !m.res.ok()
}

// resultReadable reports whether id currently has a durable readable
// result — the post-repair check.
func (s *Store) resultReadable(id string) bool {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m := sh.byID[id]
	if m == nil {
		return false
	}
	if sh.file == nil {
		_, ok := s.hot.get(id)
		return ok
	}
	return m.res.ok()
}

// checkDiskBudget runs the watchdog: degrade to read-only below the
// floor, recover at twice the floor.
func (s *Store) checkDiskBudget(cfg ScrubConfig, rep *ScrubReport) {
	if cfg.DiskFloorBytes <= 0 || s.dir == "" {
		return
	}
	probe := cfg.FreeSpace
	if probe == nil {
		probe = freeBytes
	}
	free, err := probe(s.dir)
	if err != nil {
		return
	}
	rep.FreeBytes = free
	s.tel.SetGauge("store.free_bytes", free)
	switch {
	case free < cfg.DiskFloorBytes:
		s.setReadOnly(true)
	case free >= 2*cfg.DiskFloorBytes:
		s.setReadOnly(false)
	}
}

// StartScrubber launches the background scrub loop: one ScrubOnce pass
// every cfg.Interval until StopScrubber or Close. A second call while the
// loop is running is a no-op.
func (s *Store) StartScrubber(cfg ScrubConfig) {
	s.smu.Lock()
	defer s.smu.Unlock()
	if s.scrubStop != nil {
		return
	}
	interval := cfg.Interval
	if interval <= 0 {
		interval = 30 * time.Second
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	s.scrubStop, s.scrubDone = stop, done
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-stop
		cancel()
	}()
	go func() {
		defer close(done)
		t := time.NewTimer(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			s.ScrubOnce(ctx, cfg)
			t.Reset(interval)
		}
	}()
}

// StopScrubber stops the background loop and waits for any in-flight
// pass (including its repairs) to finish. Safe to call when no loop is
// running. Close calls it before releasing the segment files, so a pass
// never races a closed handle.
func (s *Store) StopScrubber() {
	s.smu.Lock()
	stop, done := s.scrubStop, s.scrubDone
	s.scrubStop, s.scrubDone = nil, nil
	s.smu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

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
// and an idle store would otherwise never reach a compaction trigger).
//
// Fault site: "store.scrub" (KindErr skips an entry's verification for
// one pass; KindDelay stalls it, a slow device on the scrub read path;
// KindCorrupt — keyed id@seq — makes the scrubber treat the result record
// as latently corrupt, the deterministic chaos hook the self-healing
// tests drive).

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
	// result back with PutResult. A write-back that fails (a full disk,
	// say) counts the entry as RepairFailed; the next pass retries it.
	Repair func(ctx context.Context, id string) error
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
}

// ScrubOnce runs one full scrub pass synchronously: per-shard
// verification walk, compaction opportunity, then repairs. It is the
// deterministic entry point tests (and the server's manual trigger) use;
// StartScrubber runs the same pass on a timer.
func (s *Store) ScrubOnce(ctx context.Context, cfg ScrubConfig) ScrubReport {
	var rep ScrubReport
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
	// (Source, PutResult) and typically a whole analysis pipeline.
	for _, id := range repairIDs {
		if ctx.Err() != nil {
			break
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
		return s.hot.has(id)
	}
	return m.res.ok()
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

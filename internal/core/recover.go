package core

import (
	"fmt"

	"repro/internal/forecast"
	"repro/internal/invariant"
	"repro/internal/mec"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/testbed"
	"repro/internal/transport"
	"repro/internal/wal"
)

// This file is deterministic crash recovery (DESIGN.md §9): Recover loads
// the latest checkpoint snapshot plus the write-ahead log tail from disk and
// rebuilds an orchestrator whose externally observable state — gain report,
// slice registry, published epoch snapshot, event sequence, capacity ledger
// — is bit-identical to the crashed run's state at its last commit boundary.
//
// Replay never re-decides: every log record carries the original run's full
// outcome (PRBs per eNB, path hops and bandwidth, MEC host, money and ledger
// movements), and the appliers below impose those outcomes onto the rebuilt
// substrates. Environment perturbations (CQI fades, MEC brownouts) are
// deliberately not durable — they bypass the orchestrator and only lower
// capacity below the defaults, so imposed outcomes always fit a
// default-environment testbed.
//
// The whole pass is single-threaded: no API goroutine, timer or subscriber
// runs until Recover returns, so the appliers touch shard maps and counters
// without taking the locks the live paths require.
//
// The contract holds for concurrent runs as well as single-driver ones.
// Records are sequenced by persistMu inside each shard's critical section,
// so one slice's records replay in the order its transitions happened;
// across shards, two operations can touch the shared books (capacity ledger,
// counters) in one order while their records land in the other — and it does
// not matter, because the books are integers and integer adds commute. An
// epoch item for a slice whose teardown record overtook the epoch record
// skips the ledger roll the teardown already released
// (TestConcurrentRunRecoversBitIdentical).
//
// Payloads and the checkpoint blob decode strictly (records.go): anything
// that is not exactly one value of this build's format version — a log
// written by another version, a truncated or extended payload — is
// errRecordFormat, never a silently zero book.

// RecoveryReport summarises one crash-recovery pass.
type RecoveryReport struct {
	// SnapshotSeq is the WAL sequence the loaded checkpoint was anchored at
	// (0 when recovery replayed the log from its beginning).
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// Replayed counts the log records applied after the checkpoint.
	Replayed int `json:"replayed"`
	// LastSeq is the last durable WAL sequence; appending resumes after it.
	LastSeq uint64 `json:"last_seq"`
	// TornTail reports that the log ended mid-record (the crash hit the
	// fsync window); the torn fragment was discarded and truncated.
	TornTail bool `json:"torn_tail,omitempty"`
	// CleanShutdown reports that the log ended with a shutdown record — the
	// previous run exited cleanly rather than crashing.
	CleanShutdown bool `json:"clean_shutdown,omitempty"`
	// LiveSlices counts recovered slices in a live state (admitted,
	// installing, active or reconfiguring).
	LiveSlices int `json:"live_slices"`
}

// Recover rebuilds an orchestrator from the WAL directory: load the newest
// usable checkpoint and the log tail, replay, truncate any torn tail, and
// re-attach a writer so new operations append after the recovered sequence.
// An empty or absent directory degenerates to a fresh orchestrator with
// persistence enabled. cfg.Persist is ignored — the attached sink is always
// the directory's WAL writer. The caller owns closing the returned writer.
func Recover(cfg Config, tb *testbed.Testbed, clock sim.Scheduler, store *monitor.Store, dir string) (*Orchestrator, *wal.Writer, error) {
	rec, err := wal.Load(dir)
	if err != nil {
		return nil, nil, err
	}
	o, _, err := RecoverFromWAL(cfg, tb, clock, store, rec)
	if err != nil {
		return nil, nil, err
	}
	if rec.TornTail {
		// The writer appends; a torn fragment left in place would corrupt
		// the record stream for the next recovery.
		if err := wal.Repair(dir, rec.LogBytes); err != nil {
			return nil, nil, err
		}
	}
	w, err := wal.Create(dir, rec.LastSeq)
	if err != nil {
		return nil, nil, err
	}
	o.AttachSink(WALSink(w), rec.LastSeq)
	return o, w, nil
}

// RecoverFromWAL rebuilds an orchestrator from an already-loaded WAL image:
// restore the checkpoint, replay the log tail in order, re-arm the pending
// activation and expiry timers on the clock, and re-attach the invariant
// auditor primed with the recovered state. The returned orchestrator has no
// persistence sink attached (see AttachSink); crash-point tests recover
// against in-memory images without touching disk.
func RecoverFromWAL(cfg Config, tb *testbed.Testbed, clock sim.Scheduler, store *monitor.Store, rec *wal.Recovered) (*Orchestrator, *RecoveryReport, error) {
	base := cfg
	base.Persist = nil
	base.Audit = false
	base.AuditOnViolation = nil
	o := New(base, tb, clock, store)

	rep := &RecoveryReport{SnapshotSeq: rec.SnapshotSeq, LastSeq: rec.LastSeq, TornTail: rec.TornTail}
	if rec.Snapshot != nil {
		if err := o.restoreSnapshot(rec.Snapshot); err != nil {
			return nil, nil, fmt.Errorf("core: restore checkpoint at seq %d: %w", rec.SnapshotSeq, err)
		}
	}
	for _, r := range rec.Records {
		if err := o.applyRecord(r); err != nil {
			return nil, nil, fmt.Errorf("core: replay record %d (%s): %w", r.Seq, r.Type, err)
		}
		rep.Replayed++
		rep.CleanShutdown = r.Type == recShutdown
	}
	o.rearmTimers()
	for _, sh := range o.shards {
		for _, m := range sh.slices {
			switch m.s.State() {
			case slice.StateAdmitted, slice.StateInstalling, slice.StateActive, slice.StateReconfiguring:
				rep.LiveSlices++
			}
		}
	}

	// Re-attach the auditor only now: it must not observe the historical
	// stream twice (Republish bypasses the tap), and its state starts where
	// the recovered orchestrator's does.
	if cfg.Audit {
		o.cfg.Audit = true
		o.cfg.AuditOnViolation = cfg.AuditOnViolation
		o.audit = invariant.New(invariant.Options{OnViolation: cfg.AuditOnViolation})
		o.bus.SetTap(o.auditObserveEvent)
		states := make(map[slice.ID]string)
		for _, sh := range o.shards {
			for id, m := range sh.slices {
				// Only live slices: terminal states forbid successors and
				// are dropped from the auditor's tracking on observation.
				switch m.s.State() {
				case slice.StateAdmitted, slice.StateInstalling:
					states[id] = "installing"
				case slice.StateActive, slice.StateReconfiguring:
					states[id] = "active"
				}
			}
		}
		o.audit.Prime(o.bus.LastSeq(), states, int(o.epochs.Load()), clock.Now())
	}
	o.recovery = rep
	return o, rep, nil
}

// AttachSink wires a persistence sink into a recovered orchestrator, with
// appends resuming after lastSeq. It must be called before any concurrent
// operation starts (Recover and the crash-point harness call it immediately
// after RecoverFromWAL returns).
func (o *Orchestrator) AttachSink(sink Sink, lastSeq uint64) {
	o.persistMu.Lock()
	o.persist = sink
	o.walSeq = lastSeq
	o.persistMu.Unlock()
	o.commit.mu.Lock()
	o.commit.durable = lastSeq
	o.commit.mu.Unlock()
}

// restoreSnapshot rebuilds the orchestrator from a checkpoint blob: the
// counters, then every registry slice with its ledger entry and its
// substrate outcomes re-imposed.
func (o *Orchestrator) restoreSnapshot(blob []byte) error {
	var st checkpointState
	if err := decodeRecord(blob, &st); err != nil {
		return err
	}
	o.seq.Store(st.SeqCounter)
	o.epochs.Store(st.Epochs)
	if st.LastEpoch != nil {
		o.lastEpoch.Store(st.LastEpoch)
	}
	o.bus.Restore(st.EventNext)
	// Restore replaces the whole allocator state — snapshot slices' PLMNs
	// are already in its in-use set, so they are not re-imposed per slice.
	o.plmns.Restore(st.PLMN)
	o.shards[0].restore(st.Counters)
	o.history.mu.Lock()
	o.history.ids = st.History
	o.history.mu.Unlock()
	for _, ls := range st.Links {
		if err := o.tb.Transport.SetLinkCapacity(ls.From, ls.To, ls.CapacityMbps); err != nil {
			return err
		}
		if err := o.tb.Transport.SetLinkUp(ls.From, ls.To, ls.Up); err != nil {
			return err
		}
	}
	for i := range st.Slices {
		if err := o.restoreSlice(&st.Slices[i]); err != nil {
			return fmt.Errorf("slice %s: %w", st.Slices[i].Slice.ID, err)
		}
	}
	return nil
}

// restoreSlice registers one checkpointed slice, re-imposing its substrate
// outcomes when it is in a live state.
func (o *Orchestrator) restoreSlice(ps *persistedSlice) error {
	s := slice.Rehydrate(ps.Slice)
	id := s.ID()
	sh := o.shardFor(id)
	m := &managedSlice{
		s: s, sh: sh,
		ledgerKbps: ps.LedgerKbps,
		activateAt: ps.ActivateAt,
		lastDemand: ps.LastDemand,
		haveDemand: ps.HaveDemand,
	}
	switch s.State() {
	case slice.StateAdmitted, slice.StateInstalling, slice.StateActive, slice.StateReconfiguring:
		m.prov = forecast.NewProvisioner(o.cfg.NewForecaster(), o.cfg.effectiveRisk(), o.cfg.FloorMbps)
		if err := o.imposeSubstrate(s, ps.Paths, ps.MECHost, ps.MECCPU); err != nil {
			return err
		}
		switch s.State() {
		case slice.StateActive, slice.StateReconfiguring:
			if err := o.tb.Ctrl.Cloud.MarkEPCRunning(s.EPCID(), ps.Slice.Starts); err != nil {
				return err
			}
		}
	}
	sh.insert(m)
	o.ledger.Update(0, m.ledgerKbps)
	if ps.Timeline != nil {
		sh.timelines[id] = ps.Timeline
	}
	return nil
}

// imposeSubstrate re-creates a live slice's logged substrate outcomes on the
// rebuilt testbed, each through its domain controller's Impose verb — which
// registers the handles the next resize and release go through, exactly as
// Reserve does: per-eNB PRB reservations, transport paths at their recorded
// hops and bandwidth, the vEPC deployment (deterministic IDs). The MEC app
// goes on its recorded host through the pool (its controller keeps no
// per-slice index). The slice's PLMN must already be owned (allocator
// Restore or Impose).
func (o *Orchestrator) imposeSubstrate(s *slice.Slice, paths []transport.Reservation, mecHost string, mecCPU float64) error {
	alloc := s.Allocation()
	id := s.ID()
	if err := o.tb.Ctrl.RAN.ImposeSlice(alloc.PLMN, alloc.PRBs); err != nil {
		return err
	}
	if err := o.tb.Ctrl.Transport.ImposePaths(id, paths); err != nil {
		return err
	}
	if alloc.StackID != "" {
		if _, err := o.tb.Ctrl.Cloud.ImposeDeployment(id, alloc.DataCenter, alloc.PLMN, s.SLA().ThroughputMbps, s.SLA().Class); err != nil {
			return fmt.Errorf("cloud impose: %w", err)
		}
	}
	if alloc.MECAppID != "" && o.tb.MEC != nil {
		if _, err := o.tb.MEC.PlaceAt(alloc.MECAppID, id, mecCPU, mecHost); err != nil {
			return fmt.Errorf("mec impose: %w", err)
		}
	}
	return nil
}

// applyRecord decodes one log record and replays it: the record imposes its
// outcome, then its events go back into the replay ring.
func (o *Orchestrator) applyRecord(r wal.Record) error {
	rec, events, err := decodeLogRecord(r)
	if err == nil {
		err = rec.apply(o)
	}
	if err == nil {
		o.republish(events)
	}
	return err
}

// apply (shutdown) changes nothing: the record exists for its terminal event
// and for CleanShutdown.
func (sr *shutdownRecord) apply(*Orchestrator) error { return nil }

// republish re-inserts logged events into the replay ring under their
// original sequence numbers.
func (o *Orchestrator) republish(events []Event) {
	for _, ev := range events {
		o.bus.Republish(ev)
	}
}

// bumpSeq advances the slice-ID counter past a replayed slice's number.
func (o *Orchestrator) bumpSeq(id slice.ID) {
	if n := int64(seqOf(id)); n > o.seq.Load() {
		o.seq.Store(n)
	}
}

// apply (admit) registers a logged admission: the slice image as of the admit
// boundary, its substrate outcomes imposed, the ledger reservation repeated
// and the deterministic installation timeline stamped. Stage-timer stamps
// are written directly (the stages complete at fixed offsets from
// submission — exactly what the uncrashed run's install records); only the
// activation timer is re-armed afterwards (rearmTimers).
func (ar *admitRecord) apply(o *Orchestrator) error {
	s := slice.Rehydrate(ar.Slice)
	id := s.ID()
	o.bumpSeq(id)
	alloc := s.Allocation()
	if err := o.plmns.Impose(alloc.PLMN, id); err != nil {
		return err
	}
	if err := o.imposeSubstrate(s, ar.Paths, ar.MECHost, ar.MECCPU); err != nil {
		return err
	}
	o.ledger.Update(0, ar.ReservedKbps)
	sh := o.shardFor(id)
	sh.insert(&managedSlice{
		s: s, sh: sh,
		prov:       forecast.NewProvisioner(o.cfg.NewForecaster(), o.cfg.effectiveRisk(), o.cfg.FloorMbps),
		ledgerKbps: ar.ReservedKbps,
		activateAt: ar.ActivateAt,
	})
	sh.admit(s.SLA().PriceEUR, s.SLA().ThroughputMbps, alloc.AllocatedMbps)
	sh.timelines[id] = newInstallTimeline(ar.SubmittedAt)
	return nil
}

// apply (reject) registers a logged rejection.
func (rr *rejectRecord) apply(o *Orchestrator) error {
	s := slice.Rehydrate(rr.Slice)
	cause, ok := s.Cause()
	if !ok {
		return fmt.Errorf("rejected slice %s carries no cause", s.ID())
	}
	id := s.ID()
	o.bumpSeq(id)
	sh := o.shardFor(id)
	sh.insert(&managedSlice{s: s, sh: sh})
	sh.reject(cause.Code)
	o.dropFinished(o.history.Push(id))
	return nil
}

// apply (activate) replays a vEPC-boot completion.
func (ar *activateRecord) apply(o *Orchestrator) error {
	sh := o.shardFor(ar.Slice)
	m, ok := sh.slices[ar.Slice]
	if !ok {
		return fmt.Errorf("unknown slice")
	}
	if err := o.tb.Ctrl.Cloud.MarkEPCRunning(m.s.EPCID(), ar.At); err != nil {
		return err
	}
	if err := m.s.Activate(ar.At); err != nil {
		return err
	}
	sh.active.Add(1)
	if tl, ok := sh.timelines[ar.Slice]; ok {
		tl.Active = ar.At
	}
	return nil
}

// apply (teardown) replays a teardown from any live state — teardownLocked's
// bookkeeping minus publication.
func (tr *teardownRecord) apply(o *Orchestrator) error {
	sh := o.shardFor(tr.Slice)
	m, ok := sh.slices[tr.Slice]
	if !ok {
		return fmt.Errorf("unknown slice")
	}
	if st := m.s.State(); st == slice.StateRejected || st == slice.StateTerminated {
		return fmt.Errorf("slice %s is already %s", tr.Slice, st)
	}
	plmn := m.s.PLMN()
	o.releaseAll(tr.Slice, plmn)
	o.plmns.Release(plmn)
	o.leaveBooks(m, m.s.State(), m.s.AllocatedMbps())
	if err := m.s.Terminate(tr.Reason); err != nil {
		return err
	}
	o.dropFinished(o.history.Push(tr.Slice))
	return nil
}

// apply (resize) imposes a logged reallocation outcome: the recorded per-eNB
// PRBs, the transport paths resized to the new aggregate when the original
// operation did so (engine resizes — degradation shrinks leave transport to
// their preceding reroute record), and the MEC app at its recorded sizing
// input. Reconfiguration counting mirrors the original paths: engine resizes
// count one; the shrink's count came from its reroute.
func (rr *resizeRecord) apply(o *Orchestrator) error {
	sh := o.shardFor(rr.Slice)
	m, ok := sh.slices[rr.Slice]
	if !ok || m.s.State() == slice.StateTerminated || m.s.State() == slice.StateRejected {
		// A resize against a slice the recovered registry no longer holds
		// live. In a well-formed log this cannot happen — per-slice record
		// order (admit < resize < teardown) is pinned under the shard lock,
		// and the resize→teardown→crash enumeration in the crashtest harness
		// proves every prefix replays with the slice present — but a torn or
		// hand-truncated image must degrade to a skip, not abort the whole
		// recovery or resurrect released ledger/substrate capacity.
		// Returning nil still republishes the logged events (applyRecord), so
		// the sequence space and replay ring stay contiguous.
		return nil
	}
	alloc := m.s.Allocation()
	before := alloc.AllocatedMbps
	if err := o.tb.Ctrl.RAN.ImposeResize(alloc.PLMN, rr.PRBs); err != nil {
		return err
	}
	if rr.ResizePaths && len(alloc.PathIDs) > 0 {
		if err := o.tb.Ctrl.Transport.ResizePaths(rr.Slice, rr.Mbps); err != nil {
			return err
		}
	}
	if alloc.MECAppID != "" && o.tb.MEC != nil {
		if err := o.tb.MEC.Resize(alloc.MECAppID, mec.CPUForMbps(rr.MECMbps)); err != nil {
			return err
		}
	}
	m.s.UpdateAllocation(func(a *slice.Allocation) {
		a.AllocatedMbps = rr.Mbps
		a.PRBs = rr.PRBs // decoded for this record alone; the slice takes it over
	})
	sh.reallocate(before, rr.Mbps)
	if rr.ResizePaths {
		sh.reconfigurations.Add(1)
	}
	return nil
}

// apply (reroute) rebuilds a slice's transport paths from a logged restoration
// outcome.
func (rr *rerouteRecord) apply(o *Orchestrator) error {
	sh := o.shardFor(rr.Slice)
	m, ok := sh.slices[rr.Slice]
	if !ok {
		return fmt.Errorf("unknown slice")
	}
	o.tb.Ctrl.Transport.ReleasePaths(rr.Slice)
	if err := o.tb.Ctrl.Transport.ImposePaths(rr.Slice, rr.Paths); err != nil {
		return err
	}
	pids := make([]string, len(rr.Paths))
	for i := range rr.Paths {
		pids[i] = rr.Paths[i].ID
	}
	m.s.UpdateAllocation(func(a *slice.Allocation) {
		a.PathIDs = pids
		a.PathLatencyMs = rr.WorstDelayMs
	})
	sh.reconfigurations.Add(1)
	return nil
}

// apply (epoch) replays a control epoch's per-slice outcomes. The epoch's
// resizes preceded this record as their own records, so only the analysis
// results (demand samples, violation counting, forecaster observations),
// the charges and the ledger rolls happen here. Under concurrency a slice's
// teardown record can precede the record of the epoch that measured it: the
// charge still counts (it happened), the ledger roll does not (the teardown
// released the entry it rolled).
func (er *epochRecord) apply(o *Orchestrator) error {
	o.epochs.Store(er.Epoch)
	for _, it := range er.Items {
		m, ok := o.shardFor(it.Slice).slices[it.Slice]
		if !ok {
			continue
		}
		m.lastDemand = it.Demand
		m.haveDemand = true
		if it.Counted {
			if m.prov == nil {
				return fmt.Errorf("epoch %d measured slice %s, which was never admitted", er.Epoch, it.Slice)
			}
			m.s.RecordEpoch(it.Demand, it.Served)
			m.prov.Observe(it.Demand)
		}
		if it.Charged {
			m.sh.charge(m.s.SLA().PenaltyEUR)
		}
		if st := m.s.State(); it.LedgerUpdated && st != slice.StateTerminated && st != slice.StateRejected {
			o.ledger.Update(m.ledgerKbps, it.LedgerTo)
			m.ledgerKbps = it.LedgerTo
		}
	}
	o.lastEpoch.Store(&er.Snapshot)
	return nil
}

// apply (link) replays a transport-link transition; per-victim outcomes follow
// as their own records.
func (lr *linkRecord) apply(o *Orchestrator) error {
	var err error
	switch lr.Kind {
	case "fail":
		err = o.tb.Transport.SetLinkUp(lr.From, lr.To, false)
	case "degrade":
		err = o.tb.Transport.SetLinkCapacity(lr.From, lr.To, lr.CapacityMbps)
	case "restore":
		err = o.tb.Transport.SetLinkUp(lr.From, lr.To, true)
	default:
		err = fmt.Errorf("unknown link record kind %q", lr.Kind)
	}
	return err
}

// rearmTimers re-schedules the clock work the crashed run had pending:
// installing slices' activation timers (the stage stamps are already
// written — see admitRecord.apply) and active slices' contracted-expiry teardowns.
// A scheduled instant already in the past fires on the clock's next step
// (sim.At clamps), preserving the sim's deterministic event order.
func (o *Orchestrator) rearmTimers() {
	// Collected first and armed with no lock held: on a wall clock an
	// overdue timer may fire at once on its own goroutine and take the
	// slice's shard lock.
	var ordered []*managedSlice
	o.lockAll()
	walk := o.walkAllLocked()
	for m := walk.next(); m != nil; m = walk.next() {
		ordered = append(ordered, m)
	}
	o.unlockAll()
	for _, m := range ordered {
		switch m.s.State() {
		case slice.StateInstalling:
			id := m.s.ID()
			m.timers = append(m.timers,
				o.clock.At(m.activateAt, string(id)+"/activate", func() { o.activate(id) }))
		case slice.StateActive, slice.StateReconfiguring:
			o.armExpiry(m)
		}
	}
}

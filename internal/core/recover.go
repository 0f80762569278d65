package core

import (
	"fmt"
	"slices"

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
// Replay never re-decides. Each record is decoded, bound and applied: every
// log record carries the original run's full outcome (PRBs per eNB, path
// hops and bandwidth, MEC host, money and ledger movements); applyRecord
// finds the slice it names and runs the applier the live operation ran
// (apply.go) with bind set, so the applier first imposes the outcome on the
// rebuilt substrates through the bind helpers below (imposeSubstrate and
// friends). Environment perturbations (CQI fades, MEC brownouts) are
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
	// The live slices, in the auditor's terms. Only live ones: terminal
	// states forbid successors and are dropped from its tracking on
	// observation.
	states := make(map[slice.ID]string)
	for _, sh := range o.shards {
		for id, m := range sh.slices {
			switch m.s.State() {
			case slice.StateAdmitted, slice.StateInstalling:
				states[id] = "installing"
			case slice.StateActive, slice.StateReconfiguring:
				states[id] = "active"
			}
		}
	}
	rep.LiveSlices = len(states)

	// Re-attach the auditor only now: it must not observe the historical
	// stream twice (Republish bypasses the tap), and its state starts where
	// the recovered orchestrator's does.
	if cfg.Audit {
		o.cfg.Audit = true
		o.cfg.AuditOnViolation = cfg.AuditOnViolation
		o.audit = invariant.New(invariant.Options{OnViolation: cfg.AuditOnViolation})
		o.bus.SetTap(o.auditObserveEvent)
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

// restoreSlice registers one checkpointed slice through the admission
// applier's registration step, binding its ledger entry and — when it is in
// a live state — re-imposing its substrate outcomes.
func (o *Orchestrator) restoreSlice(ps *persistedSlice) error {
	s := slice.Rehydrate(ps.Slice)
	m := &managedSlice{
		s: s, sh: o.shardFor(s.ID()),
		ledgerKbps: ps.LedgerKbps,
		activateAt: ps.ActivateAt,
		lastDemand: ps.LastDemand,
		haveDemand: ps.HaveDemand,
		timeline:   ps.Timeline,
	}
	switch s.State() {
	case slice.StateAdmitted, slice.StateInstalling, slice.StateActive, slice.StateReconfiguring:
		m.prov = forecast.NewProvisioner(o.cfg.NewForecaster(), o.cfg.effectiveRisk(), floorMbps)
		if err := o.imposeSubstrate(m, ps.Paths, ps.MECHost, ps.MECCPU); err != nil {
			return err
		}
		switch s.State() {
		case slice.StateActive, slice.StateReconfiguring:
			if err := o.tb.Ctrl.Cloud.MarkEPCRunning(s.EPCID(), ps.Slice.Starts); err != nil {
				return err
			}
		}
	}
	o.register(m, true)
	return nil
}

// imposeSubstrate re-creates a live slice's logged substrate outcomes on the
// rebuilt testbed, each through its domain controller's Impose verb — which
// writes the handles the next resize and scheduling pass go through into the
// slice's binding, exactly as Reserve does: per-eNB PRB reservations,
// transport paths at their recorded hops and bandwidth, the vEPC deployment
// (deterministic IDs). The MEC app goes on its recorded host through the pool
// (its controller keeps no per-slice index). The slice's PLMN must already be
// owned (allocator Restore or Impose).
func (o *Orchestrator) imposeSubstrate(m *managedSlice, paths []transport.Reservation, mecHost string, mecCPU float64) error {
	s := m.s
	alloc := s.Allocation()
	id := s.ID()
	if err := o.tb.Ctrl.RAN.ImposeSlice(&m.bind, alloc.PLMN, alloc.PRBs); err != nil {
		return err
	}
	if err := o.tb.Ctrl.Transport.ImposePaths(&m.bind, id, paths); err != nil {
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

// imposeResize binds a logged reallocation: the recorded per-eNB PRBs, the
// transport paths resized to the new aggregate when the original operation
// did so (engine resizes — degradation shrinks leave transport to their
// preceding reroute record), the MEC app at its recorded sizing input, and
// the recorded values in the slice's allocation.
func (o *Orchestrator) imposeResize(m *managedSlice, rr *resizeRecord) error {
	alloc := m.s.Allocation()
	if err := o.tb.Ctrl.RAN.ImposeResize(&m.bind, rr.PRBs); err != nil {
		return err
	}
	if rr.ResizePaths && len(alloc.PathIDs) > 0 {
		if err := o.tb.Ctrl.Transport.ResizePaths(&m.bind, rr.Mbps); err != nil {
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
	return nil
}

// imposeReroute binds a logged restoration re-route: the slice's transport
// paths replaced by the recorded ones, and the allocation pointed at them.
func (o *Orchestrator) imposeReroute(m *managedSlice, rr *rerouteRecord) error {
	o.tb.Ctrl.Transport.ReleasePaths(rr.Slice)
	if err := o.tb.Ctrl.Transport.ImposePaths(&m.bind, rr.Slice, rr.Paths); err != nil {
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
	return nil
}

// applyRecord replays one log record: decode it, find the slice it names,
// run the applier the live operation ran (apply.go) with bind set — so the
// applier imposes the logged outcome on the shared pools first — then put
// the record's events back into the replay ring under their original
// sequence numbers. A shutdown record changes nothing: it exists for its
// terminal event and for CleanShutdown.
func (o *Orchestrator) applyRecord(r wal.Record) error {
	rec, events, err := decodeLogRecord(r)
	if err != nil {
		return err
	}
	var evicted []slice.ID
	switch r := rec.(type) {
	case *admitRecord:
		s := slice.Rehydrate(r.Slice)
		err = o.applyAdmit(r, &managedSlice{s: s, sh: o.shardFor(s.ID())}, nil, true)
	case *rejectRecord:
		evicted, err = o.applyReject(slice.Rehydrate(r.Slice))
	case *activateRecord:
		var m *managedSlice
		if m, err = o.loggedSlice(r.Slice); err == nil {
			err = o.applyActivate(m, r.At, true)
		}
	case *teardownRecord:
		var m *managedSlice
		if m, err = o.loggedSlice(r.Slice); err == nil {
			evicted, err = o.applyTeardown(m, r.Reason)
		}
	case *resizeRecord:
		// A resize against a slice the recovered registry no longer holds
		// live cannot occur in a well-formed log — per-slice record order
		// (admit < resize < teardown) is pinned under the shard lock, and
		// the crashtest harness replays every prefix of resize → teardown —
		// but a torn or hand-truncated image must degrade to a skip, not
		// abort the whole recovery or resurrect released capacity. The
		// logged events are still republished, so the sequence space and
		// the replay ring stay contiguous.
		if m, ok := o.shardFor(r.Slice).slices[r.Slice]; ok && m.s.State() != slice.StateTerminated && m.s.State() != slice.StateRejected {
			err = o.applyResize(m, r, m.s.AllocatedMbps(), true)
		}
	case *rerouteRecord:
		var m *managedSlice
		if m, err = o.loggedSlice(r.Slice); err == nil {
			err = o.applyReroute(m, r, true)
		}
	case *epochRecord:
		err = o.applyEpoch(r)
	case *linkRecord:
		err = o.applyLink(r)
	}
	o.dropFinished(evicted)
	if err == nil {
		for _, ev := range events {
			o.bus.Republish(ev)
		}
	}
	return err
}

// loggedSlice returns the registry entry a replayed record names.
func (o *Orchestrator) loggedSlice(id slice.ID) (*managedSlice, error) {
	m, ok := o.shardFor(id).slices[id]
	if !ok {
		return nil, fmt.Errorf("unknown slice")
	}
	return m, nil
}

// rearmTimers re-schedules the clock work the crashed run had pending:
// installing slices' activation timers (the stage stamps are already
// written — see applyAdmit) and active slices' contracted-expiry teardowns.
// A scheduled instant already in the past fires on the clock's next step
// (sim.At clamps), preserving the sim's deterministic event order.
func (o *Orchestrator) rearmTimers() {
	// Collected first and armed with no lock held: on a wall clock an
	// overdue timer may fire at once on its own goroutine and take the
	// slice's shard lock.
	o.lockAll()
	ordered := slices.Clone(o.rosterAllLocked())
	o.unlockAll()
	for _, m := range ordered {
		switch m.s.State() {
		case slice.StateInstalling:
			id := m.s.ID()
			m.activation = o.clock.At(m.activateAt, string(id)+"/activate", func() { o.activate(id) })
		case slice.StateActive, slice.StateReconfiguring:
			o.armExpiry(m)
		}
	}
}

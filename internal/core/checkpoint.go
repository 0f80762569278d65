package core

import "repro/internal/slice"

// This file is checkpointing (DESIGN.md §9): cutting the full-state blob
// under an all-shard quiesce and handing it to the sink anchored at the WAL
// sequence current at the cut. The blob's schema (checkpointState) lives with
// the record schema in records.go; restoreSnapshot in recover.go reads it back.

// buildCheckpointLocked assembles the checkpoint blob. The caller holds
// epochMu and every shard lock, so the cut is consistent.
func (o *Orchestrator) buildCheckpointLocked() []byte {
	st := checkpointState{
		EventNext:  o.bus.LastSeq() + 1,
		Epochs:     o.epochs.Load(),
		SeqCounter: o.seq.Load(),
		PLMN:       o.plmns.Export(),
		Counters:   o.totals(),
		LastEpoch:  o.lastEpoch.Load(),
	}
	o.history.mu.Lock()
	st.History = append([]slice.ID(nil), o.history.ids...)
	o.history.mu.Unlock()
	for _, ls := range o.tb.Transport.Snapshot() {
		st.Links = append(st.Links, linkState{From: ls.From, To: ls.To, Up: ls.Up, CapacityMbps: ls.CapacityMbps})
	}
	for _, m := range o.rosterAllLocked() {
		ps := persistedSlice{
			Slice:      m.s.Persist(),
			LedgerKbps: m.ledgerKbps,
			ActivateAt: m.activateAt,
			LastDemand: m.lastDemand,
			HaveDemand: m.haveDemand,
		}
		switch m.s.State() {
		case slice.StateAdmitted, slice.StateInstalling, slice.StateActive, slice.StateReconfiguring:
			alloc := &ps.Slice.Allocation
			ps.Paths = o.pathRecords(alloc.PathIDs)
			if alloc.MECAppID != "" {
				if app, ok := o.tb.MEC.App(alloc.MECAppID); ok {
					ps.MECHost, ps.MECCPU = app.Host, app.CPU
				}
			}
		}
		ps.Timeline = m.timeline
		st.Slices = append(st.Slices, ps)
	}
	return encodeRecord(&st)
}

// checkpoint writes a full-state snapshot anchored at the WAL sequence
// current while the shards are quiesced. Called from the epoch tail with
// epochMu held and no shard lock; it quiesces the shards itself for the
// consistent cut.
//
// The anchor must be captured inside the lockAll window: the moment the
// shard locks drop, a concurrent operation (SubmitCtx, an activation timer,
// Delete) can append records and advance walSeq, and a snapshot anchored
// past records whose effects are not in the blob would make recovery skip
// them — silently losing the operations. persistMu nests inside shard locks
// everywhere (appendRecord), so acquiring it here preserves lock order, and
// holding it through Snapshot pins anchor == last appended record at the
// checkpoint's fsync.
//
// Group-commit interaction: the checkpoint first takes commit leadership —
// waiting out any in-flight group flush — because Snapshot both syncs the
// log and rotates it (sealing wal.log and swapping the writer's file handle
// to a fresh one), which must never overlap a staged write still holding
// the old handle. The snapshot's own sync advances the durable frontier
// (anchor == walSeq at the cut, at or past every queued commit target), so
// queued operations are released durable without another fsync.
func (o *Orchestrator) checkpoint() {
	if o.persist == nil {
		return
	}
	g := &o.commit
	g.mu.Lock()
	g.barrier++
	for g.flushing && !g.closed {
		g.cond.Wait()
	}
	g.barrier--
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.flushing = true
	g.mu.Unlock()

	o.lockAll()
	blob := o.buildCheckpointLocked()
	o.persistMu.Lock()
	anchor := o.walSeq
	o.unlockAll()
	var err error
	ran := o.persistErr == nil && !o.persistClosed
	if ran {
		err = o.persist.Snapshot(anchor, blob)
		o.persistErr = err
	}
	o.persistMu.Unlock()

	g.mu.Lock()
	g.flushing = false
	if ran && err == nil {
		g.fsyncs++
		if anchor > g.durable {
			g.durable = anchor
		}
		// The snapshot's sync may already cover every member of the
		// gathering ticket; complete it here rather than waiting for its
		// parked leader to win the lock back — under a hot checkpoint loop
		// the leader may not be scheduled for a long time, and its members
		// would be held hostage with their records long since durable.
		if t := g.cur; t != nil && g.durable >= t.maxTarget {
			g.cur = nil
			close(t.done)
		}
	} else if err != nil {
		g.err = err
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

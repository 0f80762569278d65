package core

import (
	"fmt"

	"repro/internal/invariant"
	"repro/internal/slice"
	"repro/internal/traffic"
)

// This file wires the cross-domain invariant auditor (internal/invariant)
// through the orchestrator. With Config.Audit enabled the core proves, at
// every epoch barrier and on every transaction commit/rollback, that its
// books stay exact:
//
//   - every published lifecycle event is observed synchronously from the
//     bus (events.go tap), so sequence gap-freeness and per-slice state
//     legality are checked in publication order;
//   - every install rollback and teardown is followed by a scoped leak
//     check (no ID-keyed resource of the slice survives in any substrate),
//     and every successful install by the mirror-image presence check;
//   - the epoch's telemetry barrier — and every whole-registry restoration
//     pass — ends with a full conservation sweep under all shard locks:
//     substrate books vs ground truth, capacity ledger vs the sum of live
//     entries, substrate holdings vs live slices.
//
// Install transactions that release their shard lock around the overbooking
// squeeze hold resources while being registered nowhere; the pending-ID set
// below exempts exactly those from leak checks, so auditing stays exact
// under full concurrency (see DESIGN.md §8 for the determinism argument).

// auditObserveEvent is the synchronous bus tap (called under the bus mutex,
// in sequence order).
func (o *Orchestrator) auditObserveEvent(ev Event) {
	o.audit.ObserveEvent(ev.Seq, ev.Slice, string(ev.Type), ev.State)
}

// auditPendingBegin marks the slice's install transaction in flight. The
// returned func clears the mark; callers defer it around the whole
// submission so the squeeze window (shard lock released mid-install) never
// reads as a leak.
func (o *Orchestrator) auditPendingBegin(id slice.ID) func() {
	if o.audit == nil {
		return func() {}
	}
	o.pendingTx.Store(id, struct{}{})
	return func() { o.pendingTx.Delete(id) }
}

// auditSliceReleased runs the scoped rollback/teardown leak check. Safe to
// call with or without shard locks held (it reads only the internally
// synchronized substrates).
func (o *Orchestrator) auditSliceReleased(id slice.ID) {
	if o.audit == nil {
		return
	}
	o.audit.CheckSliceReleased(o.tb, id)
}

// auditSliceInstalled runs the scoped post-commit presence check.
func (o *Orchestrator) auditSliceInstalled(m *managedSlice) {
	if o.audit == nil {
		return
	}
	alloc := m.s.Allocation()
	o.audit.CheckSliceInstalled(o.tb, invariant.SliceView{
		ID:       m.s.ID(),
		State:    m.s.State().String(),
		PLMN:     alloc.PLMN,
		PathIDs:  alloc.PathIDs,
		StackID:  alloc.StackID,
		EPCID:    alloc.EPCID,
		MECAppID: alloc.MECAppID,
		DC:       alloc.DataCenter,
	})
}

// auditSweepAllLocked runs the full conservation/leak sweep. The caller
// holds every shard lock (epoch barrier, restoration passes), so the
// registry cut is consistent and no install transaction is mid-flight
// except those in the pending set.
func (o *Orchestrator) auditSweepAllLocked() {
	if o.audit == nil {
		return
	}
	var views []invariant.SliceView
	for _, sh := range o.shards {
		for _, m := range sh.slices {
			alloc := m.s.Allocation()
			views = append(views, invariant.SliceView{
				ID:         m.s.ID(),
				State:      m.s.State().String(),
				LedgerKbps: m.ledgerKbps,
				PLMN:       alloc.PLMN,
				PathIDs:    alloc.PathIDs,
				StackID:    alloc.StackID,
				EPCID:      alloc.EPCID,
				MECAppID:   alloc.MECAppID,
				DC:         alloc.DataCenter,
			})
		}
	}
	owners := make(map[slice.PLMN]slice.ID)
	for _, p := range o.plmns.InUse() {
		if id, ok := o.plmns.Owner(p); ok {
			owners[p] = id
		}
	}
	pending := make(map[slice.ID]bool)
	o.pendingTx.Range(func(k, _ any) bool {
		pending[k.(slice.ID)] = true
		return true
	})
	o.audit.Sweep(invariant.SweepInput{
		TB:         o.tb,
		Slices:     views,
		LedgerLoad: o.ledger.Load(),
		PLMNOwners: owners,
		Pending:    pending,
	})
}

// Auditor returns the invariant auditor when Config.Audit is enabled, nil
// otherwise. Tests and chaos scenarios read violations from it; it never
// alters orchestrator behavior.
func (o *Orchestrator) Auditor() *invariant.Auditor { return o.audit }

// AuditSweep runs one full conservation/leak sweep immediately, outside the
// epoch barrier. The crash-recovery harness calls it right after Recover to
// prove the rebuilt state keeps the books exact. No-op without Config.Audit.
//
// Kept: the crash-recovery suites in internal/wal/crashtest sweep every
// recovered image with it.
func (o *Orchestrator) AuditSweep() {
	if o.audit == nil {
		return
	}
	o.epochMu.Lock()
	defer o.epochMu.Unlock()
	o.lockAll()
	defer o.unlockAll()
	o.auditSweepAllLocked()
}

// WrapDemand atomically replaces the slice's simulated demand process with
// wrap(current). Chaos programs use it to overlay flash crowds or other
// adversarial load shapes on a running slice; the wrapped process is
// sampled from the next epoch on. The current process may be nil (live-mode
// slices fed via RecordDemand); wrap may return nil to detach the process
// again.
func (o *Orchestrator) WrapDemand(id slice.ID, wrap func(traffic.Demand) traffic.Demand) error {
	if wrap == nil {
		return fmt.Errorf("core: WrapDemand needs a wrapper")
	}
	sh := o.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m, ok := sh.slices[id]
	if !ok {
		return fmt.Errorf("core: unknown slice %s", id)
	}
	m.demand = wrap(m.demand)
	return nil
}

package core

import (
	"fmt"
	"time"

	"repro/internal/slice"
)

// epcProcMs is the vEPC user-plane processing share counted against every
// slice's end-to-end latency budget; the domains see the remainder.
const epcProcMs = 0.5

// Installation stage latencies (Fig. 2 workflow): radio configuration, path
// setup, Heat stack creation, in that order from submission. The vEPC boot
// that follows comes from epc.BootDelayFor.
const (
	radioConfigDelay = 500 * time.Millisecond
	pathSetupDelay   = 200 * time.Millisecond
	stackCreateDelay = 2 * time.Second
)

// newInstallTimeline stamps the stage completions of a slice submitted at
// the given instant — fixed offsets, so applyAdmit records the same timeline
// live and on replay.
func newInstallTimeline(submitted time.Time) InstallTimeline {
	radioAt := submitted.Add(radioConfigDelay)
	pathsAt := radioAt.Add(pathSetupDelay)
	return InstallTimeline{
		Submitted: submitted,
		RadioDone: radioAt,
		PathsDone: pathsAt,
		StackDone: pathsAt.Add(stackCreateDelay),
	}
}

// install is admission's decide step past the ledger: it reserves resources
// across the registered domain chain for an admitted request. The heavy
// lifting is the generic two-phase transaction engine (engine.go): the
// concurrent-group domains (cloud vEPC, MEC apps, ...) reserve inline, then
// the sequential radio → transport chain, their results fold in
// deterministic order, and any failure rolls everything back in reverse
// order automatically and converts to a typed rejection.
//
// The caller is an in-flight submission (submitCtx): it holds the shared
// side of passMu and no shard lock — m is not registered yet, so nothing
// else reaches its binding. It has already reserved the newcomer's estimate
// on the capacity ledger (it releases that reservation if install fails)
// and chose dcName at admission (the placement scan is not repeated here).
// On success m's slice is Installing with every grant applied to its
// allocation — the outcome the admit record logs — and its substrate
// handles in m.bind, and install returns the instant its installation
// stages end; registering m is applyAdmit's.
func (o *Orchestrator) install(m *managedSlice, dcName string) (activateAt time.Time, err error) {
	s := m.s
	sla := s.SLA()
	now := o.clock.Now()

	// 1. PLMN — the slice's broadcast identity, acquired before the domain
	// transaction and released after every grant on rollback.
	plmn, err := o.plmns.Allocate(s.ID())
	if err != nil {
		return time.Time{}, errReject{slice.CauseOf(err, slice.RejectPLMNExhausted, "")}
	}

	// 2. The multi-domain two-phase transaction.
	var buf grantList
	grants, cause := o.reserveAll(o.sliceTx(m, plmn, dcName, sla.ThroughputMbps), o.admissionEstimate(sla), buf[:0])
	if cause != nil {
		o.plmns.Release(plmn)
		return time.Time{}, errReject{cause}
	}
	if cause := commitGrants(grants); cause != nil {
		o.plmns.Release(plmn)
		return time.Time{}, errReject{cause}
	}

	if err := s.Admit(); err != nil {
		abortGrants(grants)
		o.plmns.Release(plmn)
		return time.Time{}, err
	}
	bootDelay := time.Duration(0)
	s.UpdateAllocation(func(a *slice.Allocation) {
		a.PLMN = plmn
		for _, dg := range grants {
			dg.g.Apply(a)
			if d := dg.g.ActivationDelay(); d > bootDelay {
				bootDelay = d
			}
		}
	})

	// Installation stage timeline (Fig. 2 workflow). Resources are already
	// committed; the stages model configuration latency, so they end at
	// fixed offsets from now — only the activation transition needs a real
	// timer.
	if err := s.BeginInstall(); err != nil {
		return time.Time{}, err
	}
	return newInstallTimeline(now).StackDone.Add(bootDelay), nil
}

// activate fires when the vEPC boot delay elapses: the EPC starts serving
// attaches and the slice turns Active until its contracted expiry.
func (o *Orchestrator) activate(id slice.ID) {
	sh := o.shardFor(id)
	sh.mu.Lock()
	m, ok := sh.slices[id]
	if !ok || m.s.State() != slice.StateInstalling {
		sh.mu.Unlock()
		return
	}
	now := o.clock.Now()
	if err := o.tb.Ctrl.Cloud.MarkEPCRunning(m.s.EPCID(), now); err != nil {
		evicted := o.teardownLocked(m, fmt.Sprintf("EPC failed to boot: %v", err), EventDeleted)
		o.auditSliceReleased(id)
		sh.mu.Unlock()
		o.dropFinished(evicted)
		o.commitPersist()
		return
	}
	// The event reports the state the applier moves the slice to.
	v := m.s.EventView()
	v.State = slice.StateActive
	var instEv Event
	o.publishView(&instEv, EventInstalled, m.s, v, "")
	if o.persist != nil {
		o.appendRecord(recActivate, &activateRecord{Slice: id, At: now}, instEv)
	}
	_ = o.applyActivate(m, now, false) // the slice is Installing: it cannot refuse
	o.armExpiry(m)
	sh.mu.Unlock()
	o.commitPersist()
}

// armExpiry schedules the slice's contracted-expiry teardown. Called with
// the shard lock held (activation) or from the single-threaded recovery
// pass (rearmTimers).
func (o *Orchestrator) armExpiry(m *managedSlice) {
	sh := m.sh
	id := m.s.ID()
	m.expiry = o.clock.At(m.s.Expiry(), string(id)+"/expiry", func() {
		sh.mu.Lock()
		mm, ok := sh.slices[id]
		if !ok {
			sh.mu.Unlock()
			return
		}
		// On a wall clock the timer may already be in flight when a
		// concurrent teardown cancels it; re-check liveness under the
		// shard lock so a finished slice is never torn down twice (its
		// PLMN may already belong to someone else).
		switch mm.s.State() {
		case slice.StateRejected, slice.StateTerminated:
			sh.mu.Unlock()
			return
		}
		evicted := o.teardownLocked(mm, "expired", EventExpired)
		o.auditSliceReleased(id)
		sh.mu.Unlock()
		o.dropFinished(evicted)
		o.commitPersist()
	})
}

// teardownLocked tears a live slice down, publishing typ (EventDeleted or
// EventExpired) on the event bus; applyTeardown releases what it holds. The
// caller holds the slice's shard lock (or every shard lock in restoration
// passes) and must drop the returned evicted finished slices once its locks
// are released.
//
// The record is sequenced BEFORE any substrate resource is released: the
// allocators (PLMN, eNB PRBs, transport) are global, so the instant a
// resource is freed a concurrent admission on another shard can take it and
// append its admit record — and if that admit sequenced ahead of this
// teardown, replay would impose the same exclusive resource twice and fail
// recovery. Appending first pins the WAL order: any reuse is logged strictly
// after the release that made it possible.
func (o *Orchestrator) teardownLocked(m *managedSlice, reason string, typ EventType) []slice.ID {
	if m.activation != nil {
		m.activation.Cancel()
		m.activation = nil
	}
	if m.expiry != nil {
		m.expiry.Cancel()
		m.expiry = nil
	}
	v := m.s.EventView()
	v.State = slice.StateTerminated
	var ev Event
	o.publishView(&ev, typ, m.s, v, reason)
	if o.persist != nil {
		o.appendRecord(recTeardown, &teardownRecord{Slice: m.s.ID(), Reason: reason}, ev)
	}
	evicted, _ := o.applyTeardown(m, reason) // callers tear down live slices only
	return evicted
}

// squeezeAll shrinks every live slice's domain reservations to its
// forecast-provisioned target (or the a-priori estimate for slices without
// history), freeing capacity for a newcomer. Its one caller is an in-flight
// install (reserveAll), which holds the shared side of passMu and no shard
// lock: that already shuts out the epoch and every other pass that touches
// forecasters, so squeezeAll only takes every shard lock in index order,
// which also keeps two concurrent squeezes in order.
func (o *Orchestrator) squeezeAll() {
	o.lockAll()
	defer o.unlockAll()
	for _, m := range o.rosterAllLocked() {
		target := o.admissionEstimate(m.s.SLA())
		if m.prov != nil && m.prov.Observed() {
			target = m.prov.Provision(m.s.SLA().ThroughputMbps)
		}
		o.resizeLocked(m, target) // skips a slice that holds nothing
	}
}

// resizeLocked applies a new multi-domain allocation to the slice if it
// holds one, the target differs enough from it (hysteresis) and the radio
// would move (a cell's PRBs, or the throughput they sustain). It returns
// the slice's radio reservation afterwards, whether the slice was live
// (admitted, installing or active — a finished slice is left alone) and
// whether a reconfiguration happened. The caller holds the slice's shard
// lock.
//
// The slice is read once and written once: BeginResize cuts its view, clamps
// the target to [floor, contract], runs the hysteresis test and, past the
// band, asks the RAN controller through the slice's binding whether the
// target moves the radio, in one critical section (the cell mutexes nest
// under the slice lock there) — a resize it swallows, most of the slices
// every epoch, costs nothing else — and enters Reconfiguring when the
// resize goes ahead. A resize that goes through applies its grants to the
// live allocation under the slice lock — the radio grant writes the PRBs
// into the allocation's own map, so no copy of the allocation is made on the
// way in or out — and the same critical section ends the Reconfiguring state
// and cuts what the event reports. That is the decide step; resizedLocked
// logs and applies its outcome.
func (o *Orchestrator) resizeLocked(m *managedSlice, targetMbps float64) (allocatedMbps float64, live, changed bool) {
	v, live, resize := m.s.BeginResize(targetMbps, floorMbps, o.cfg.ReconfigThreshold, func(target, held float64) bool {
		return o.tb.Ctrl.RAN.Moves(&m.bind, target, held)
	})
	before := v.AllocatedMbps
	if !resize {
		return before, live, false
	}
	var buf grantList
	gs, ok := o.resizeAll(o.sliceTx(m, v.PLMN, v.DataCenter, 0), v.TargetMbps, before, buf[:0])
	if !ok {
		if v.State == slice.StateActive {
			m.s.EndReconfigure()
		}
		return before, true, false
	}
	// The event is published after the Reconfiguring -> Active transition, so
	// it carries the post-transition state.
	after := m.s.CommitReconfigure(func(a *slice.Allocation) {
		for _, dg := range gs {
			if dg.g != nil {
				dg.g.Apply(a)
			}
		}
	})
	var ev Event
	o.publishView(&ev, EventResized, m.s, after, "")
	// The engine threads the radio-quantized throughput into transport and
	// MEC, so the post-apply allocation is what every domain saw.
	o.resizedLocked(m, resizeRecord{
		Slice:       m.s.ID(),
		Mbps:        after.AllocatedMbps,
		MECMbps:     after.AllocatedMbps,
		ResizePaths: true,
	}, before, &ev)
	return after.AllocatedMbps, true, true
}

// resizedLocked logs and applies a reallocation decide has made — an engine
// resize or a degradation shrink, the two producers of a resize record. The
// caller holds the slice's shard lock; ev is the published resize event.
func (o *Orchestrator) resizedLocked(m *managedSlice, rr resizeRecord, beforeMbps float64, ev *Event) {
	if o.persist != nil {
		// PRBs capture the radio's final state, copied under the shard lock.
		logged := rr
		logged.PRBs = m.s.Allocation().PRBs
		o.appendRecord(recResize, &logged, *ev)
	}
	_ = o.applyResize(m, &rr, beforeMbps, false) // nothing to bind: cannot fail
}

package core

import (
	"fmt"
	"sort"

	"repro/internal/ctrl"
	"repro/internal/slice"
)

// This file implements transport restoration — the reaction half of the
// demo's "dynamic configuration" pillar. The testbed's wireless transport
// (mmWave rain fade, µWave interference) and the programmable switch's
// topology reconfigurations can take links down at runtime; the
// orchestrator must then re-route the slices whose dedicated paths crossed
// the failed link or, when no feasible alternative exists, tear them down
// and surface the SLA failure.
//
// A failed link's victims can live on any shard, so both handlers are
// whole-registry passes: they serialize on epochMu (so a restoration never
// interleaves with the control epoch's phase pipeline or the squeeze) and
// then take every shard lock (index order) for the duration, serializing
// against in-flight admissions.

// RestorationReport summarises one link-failure handling pass.
type RestorationReport struct {
	// Link is the failed directed link ("from->to").
	Link string `json:"link"`
	// Restored lists slices whose paths were successfully re-routed.
	Restored []slice.ID `json:"restored"`
	// Dropped lists slices terminated because no feasible path remained.
	Dropped []slice.ID `json:"dropped"`
}

// HandleLinkFailure marks the directed link down and re-routes every live
// slice whose reserved paths crossed it. Re-routing keeps the slice's data
// center and current bandwidth; the latency budget is re-validated. Slices
// with no feasible alternative are terminated (the tenant's SLA failed
// outright — shown on the dashboard). Safe for concurrent use.
func (o *Orchestrator) HandleLinkFailure(from, to string) (RestorationReport, error) {
	defer o.commitPersist() // deferred first, so it runs once every lock is released
	o.epochMu.Lock()
	defer o.epochMu.Unlock()
	o.lockAll()
	defer o.unlockAll()

	rep := RestorationReport{Link: from + "->" + to}
	victims := o.tb.Transport.PathsOverLink(from, to)
	if err := o.transitionLink(&linkRecord{Kind: "fail", From: from, To: to}, EventLinkFailed, ""); err != nil || len(victims) == 0 {
		return rep, err
	}

	// Recover the victim slices from their path IDs.
	var evicted []slice.ID
	for _, id := range victimSliceIDs(victims) {
		m, ok := o.shardFor(id).slices[id]
		if !ok || m.s.State() == slice.StateRejected || m.s.State() == slice.StateTerminated {
			continue
		}
		if o.rerouteLocked(m, m.s.AllocatedMbps(), "re-routed around "+rep.Link) {
			rep.Restored = append(rep.Restored, id)
		} else {
			evicted = append(evicted, o.teardownLocked(m, fmt.Sprintf("transport link %s failed, no feasible restoration path", rep.Link), EventDeleted)...)
			rep.Dropped = append(rep.Dropped, id)
		}
	}
	o.dropFinishedAllLocked(evicted)
	o.auditSweepAllLocked() // restoration is a whole-registry mutation: sweep before unlocking
	return rep, nil
}

// transitionLink takes a link verb's transition: decide, publish typ, log,
// apply. Decide makes no substrate decision — it only checks the transport
// will take the transition, so a refused one publishes and logs nothing (the
// transport refuses it again, with its own error and no effect) and the
// applier that follows the record cannot fail.
func (o *Orchestrator) transitionLink(lr *linkRecord, typ EventType, detail string) error {
	if _, ok := o.tb.Transport.Link(lr.From, lr.To); !ok || (lr.Kind == "degrade" && lr.CapacityMbps <= 0) {
		return o.applyLink(lr)
	}
	ev := o.publishLink(typ, lr.From+"->"+lr.To, detail)
	if o.persist != nil {
		o.appendRecord(recLink, lr, ev)
	}
	return o.applyLink(lr)
}

// victimSliceIDs maps path IDs onto their unique owning slice IDs, in
// submission order.
func victimSliceIDs(pathIDs []string) []slice.ID {
	seen := map[slice.ID]bool{}
	var ids []slice.ID
	for _, pid := range pathIDs {
		id := ctrl.OwnerOf(pid)
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return seqOf(ids[i]) < seqOf(ids[j]) })
	return ids
}

// RestoreLink marks the directed link up again. Existing paths are not
// moved back (make-before-break is a non-goal); new computations will use
// it. The restore record is appended before the link comes up, so an
// admission that routes over the link is logged after it.
func (o *Orchestrator) RestoreLink(from, to string) error {
	if err := o.transitionLink(&linkRecord{Kind: "restore", From: from, To: to}, EventLinkRestored, ""); err != nil {
		return err
	}
	o.commitPersist()
	return nil
}

// HandleLinkDegradation rescales the directed link's capacity (rain fade on
// the mmWave hop, interference on µWave) and resolves any resulting
// oversubscription: each victim slice is first re-routed at its current
// bandwidth; if no alternative exists, its reservation is shrunk to the
// link's fair share (demand keeps flowing, SLA violations become the
// monitoring loop's problem); a slice that cannot even keep the floor is
// dropped. Safe for concurrent use.
func (o *Orchestrator) HandleLinkDegradation(from, to string, newCapacityMbps float64) (RestorationReport, error) {
	defer o.commitPersist() // deferred first, so it runs once every lock is released
	o.epochMu.Lock()
	defer o.epochMu.Unlock()
	o.lockAll()
	defer o.unlockAll()

	rep := RestorationReport{Link: from + "->" + to}
	lr := &linkRecord{Kind: "degrade", From: from, To: to, CapacityMbps: newCapacityMbps}
	if err := o.transitionLink(lr, EventLinkDegraded, fmt.Sprintf("capacity rescaled to %.1f Mbps", newCapacityMbps)); err != nil {
		return rep, err
	}
	over := o.tb.Transport.OversubscribedPaths()
	if len(over) == 0 {
		return rep, nil
	}

	ids := victimSliceIDs(over)

	// Fair share per victim on the degraded link.
	share := newCapacityMbps / float64(len(ids))
	var evicted []slice.ID
	for _, id := range ids {
		m, ok := o.shardFor(id).slices[id]
		if !ok || m.s.State() == slice.StateRejected || m.s.State() == slice.StateTerminated {
			continue
		}
		// First try to keep the full allocation on an alternative route;
		// failing that, re-establish paths at the fair share of the
		// degraded link and shrink the radio side to match. The interim
		// re-route at the fair share is its own WAL record with no event —
		// the EventResized below announces the shrink.
		if o.rerouteLocked(m, m.s.AllocatedMbps(), "re-routed around degraded "+rep.Link) {
			rep.Restored = append(rep.Restored, id)
			continue
		}
		target := share
		if target < floorMbps || !o.rerouteLocked(m, target, "") {
			evicted = append(evicted, o.teardownLocked(m, fmt.Sprintf("transport link %s degraded below slice floor", rep.Link), EventDeleted)...)
			rep.Dropped = append(rep.Dropped, id)
			continue
		}
		// The re-route just rebuilt the paths at the fair share; shrink the
		// rest of the allocation to match. The chain head's quantized grant
		// records the new throughput, and every concurrent-group domain
		// (vEPC no-op, MEC app CPU, ...) follows the same target — shrinks
		// always fit, so errors are ignored like in the engine's restore
		// path.
		before := m.s.AllocatedMbps()
		tx := o.sliceTx(m, m.s.PLMN(), m.s.DataCenter(), 0)
		g, err := o.domains.chain[0].Resize(tx, target)
		m.s.UpdateAllocation(func(a *slice.Allocation) {
			if err == nil && g != nil {
				g.Apply(a)
			} else {
				a.AllocatedMbps = target
			}
		})
		for _, d := range o.domains.async {
			d.Resize(tx, target)
		}
		rep.Restored = append(rep.Restored, id)
		ev := o.publish(EventResized, m.s, fmt.Sprintf("shrunk to fair share of degraded %s", rep.Link))
		// Unlike an engine resize, the shrink re-sizes no transport paths
		// (the re-route above already rebuilt them at the share) and feeds
		// the MEC app the raw share rather than the radio-quantized value;
		// PRBs capture the radio's final state even when its resize failed
		// and only AllocatedMbps moved.
		o.resizedLocked(m, resizeRecord{Slice: id, Mbps: m.s.AllocatedMbps(), MECMbps: target}, before, &ev)
	}
	o.dropFinishedAllLocked(evicted)
	o.auditSweepAllLocked()
	return rep, nil
}

// rerouteLocked rebuilds the slice's transport paths around the current
// topology at the given bandwidth, keeping its DC. Decide drives the
// transport controller through its generic Domain surface (Release +
// Reserve + grant Apply) with the Set's Wrap decoration applied, so
// fault-injection and tracing wrappers observe restoration like any engine
// operation. Old reservations are released first (their bandwidth is
// stranded on the broken/degraded hop anyway, and the replacement may share
// the surviving hops); Release is idempotent, so staged fallbacks may call
// this repeatedly with shrinking targets. A re-route that succeeds publishes
// EventRestored with detail (nothing for an empty detail), logs the new
// paths and goes through applyReroute. Returns success. The caller holds
// the slice's shard lock.
func (o *Orchestrator) rerouteLocked(m *managedSlice, mbps float64, detail string) bool {
	plmn := m.s.PLMN()
	d := o.tb.Ctrl.Wrapped(o.tb.Ctrl.Transport)
	d.Release(m.s.ID(), plmn)
	g, cause := d.Reserve(o.sliceTx(m, plmn, m.s.DataCenter(), mbps))
	if cause != nil {
		return false
	}
	m.s.UpdateAllocation(g.Apply)
	var events []Event
	if detail != "" {
		events = append(events, o.publish(EventRestored, m.s, detail))
	}
	rr := &rerouteRecord{Slice: m.s.ID()}
	if o.persist != nil {
		alloc := m.s.Allocation()
		rr.Paths, rr.WorstDelayMs = o.pathRecords(alloc.PathIDs), alloc.PathLatencyMs
		o.appendRecord(recReroute, rr, events...)
	}
	_ = o.applyReroute(m, rr, false) // nothing to bind: cannot fail
	return true
}

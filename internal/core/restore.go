package core

import (
	"fmt"
	"sort"
	"strings"

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
	rep, err := o.handleLinkFailure(from, to)
	o.commitPersist()
	return rep, err
}

// handleLinkFailure is HandleLinkFailure's body; it holds epochMu and the
// shard locks for the duration and leaves the WAL commit to the caller.
func (o *Orchestrator) handleLinkFailure(from, to string) (RestorationReport, error) {
	o.epochMu.Lock()
	defer o.epochMu.Unlock()
	o.lockAll()

	rep := RestorationReport{Link: from + "->" + to}
	victims := o.tb.Transport.PathsOverLink(from, to)
	if err := o.tb.Transport.SetLinkUp(from, to, false); err != nil {
		o.unlockAll()
		return rep, err
	}
	linkEv := o.publishLink(EventLinkFailed, rep.Link, "")
	if o.persist != nil {
		o.appendRecord(recLink, &linkRecord{Kind: "fail", From: from, To: to}, linkEv)
	}
	if len(victims) == 0 {
		o.unlockAll()
		return rep, nil
	}

	// Path IDs are "<sliceID>/<enb>-><dc>"; recover the victim slices.
	ids := victimSliceIDs(victims)

	var evicted []slice.ID
	for _, id := range ids {
		m, ok := o.lookupAllLocked(id)
		if !ok {
			continue
		}
		switch m.s.State() {
		case slice.StateRejected, slice.StateTerminated:
			continue
		}
		if o.rerouteLocked(m, m.s.AllocatedMbps()) {
			rep.Restored = append(rep.Restored, id)
			ev := o.publish(EventRestored, m.s, "re-routed around "+rep.Link)
			o.appendReroute(m, ev)
		} else {
			evicted = append(evicted, o.teardownLocked(m, fmt.Sprintf("transport link %s failed, no feasible restoration path", rep.Link), EventDeleted)...)
			rep.Dropped = append(rep.Dropped, id)
		}
	}
	o.dropFinishedAllLocked(evicted)
	o.auditSweepAllLocked() // restoration is a whole-registry mutation: sweep before unlocking
	o.unlockAll()
	return rep, nil
}

// appendReroute logs the slice's freshly rebuilt transport paths (the
// outcome of a successful rerouteLocked). The caller holds the shard locks;
// events may be empty for the degradation shrink's interim re-route.
func (o *Orchestrator) appendReroute(m *managedSlice, events ...Event) {
	if o.persist == nil {
		return
	}
	alloc := m.s.Allocation()
	o.appendRecord(recReroute, &rerouteRecord{
		Slice:        m.s.ID(),
		Paths:        o.pathRecords(alloc.PathIDs),
		WorstDelayMs: alloc.PathLatencyMs,
	}, events...)
}

// victimSliceIDs maps path IDs ("<sliceID>/<enb>-><dc>") onto their unique
// slice IDs, in submission order.
func victimSliceIDs(pathIDs []string) []slice.ID {
	seen := map[slice.ID]bool{}
	var ids []slice.ID
	for _, pid := range pathIDs {
		idx := strings.IndexByte(pid, '/')
		if idx < 0 {
			continue
		}
		id := slice.ID(pid[:idx])
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
// it.
func (o *Orchestrator) RestoreLink(from, to string) error {
	if err := o.tb.Transport.SetLinkUp(from, to, true); err != nil {
		return err
	}
	ev := o.publishLink(EventLinkRestored, from+"->"+to, "")
	if o.persist != nil {
		o.appendRecord(recLink, &linkRecord{Kind: "restore", From: from, To: to}, ev)
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
	rep, err := o.handleLinkDegradation(from, to, newCapacityMbps)
	o.commitPersist()
	return rep, err
}

// handleLinkDegradation is HandleLinkDegradation's body; it holds epochMu
// and the shard locks for the duration and leaves the WAL commit to the
// caller.
func (o *Orchestrator) handleLinkDegradation(from, to string, newCapacityMbps float64) (RestorationReport, error) {
	o.epochMu.Lock()
	defer o.epochMu.Unlock()
	o.lockAll()

	rep := RestorationReport{Link: from + "->" + to}
	if err := o.tb.Transport.SetLinkCapacity(from, to, newCapacityMbps); err != nil {
		o.unlockAll()
		return rep, err
	}
	linkEv := o.publishLink(EventLinkDegraded, rep.Link, fmt.Sprintf("capacity rescaled to %.1f Mbps", newCapacityMbps))
	if o.persist != nil {
		o.appendRecord(recLink, &linkRecord{Kind: "degrade", From: from, To: to, CapacityMbps: newCapacityMbps}, linkEv)
	}
	over := o.tb.Transport.OversubscribedPaths()
	if len(over) == 0 {
		o.unlockAll()
		return rep, nil
	}

	ids := victimSliceIDs(over)

	// Fair share per victim on the degraded link.
	share := newCapacityMbps / float64(len(ids))
	var evicted []slice.ID
	for _, id := range ids {
		m, ok := o.lookupAllLocked(id)
		if !ok {
			continue
		}
		switch m.s.State() {
		case slice.StateRejected, slice.StateTerminated:
			continue
		}
		// First try to keep the full allocation on an alternative route;
		// failing that, re-establish paths at the fair share of the
		// degraded link and shrink the radio side to match.
		if o.rerouteLocked(m, m.s.AllocatedMbps()) {
			rep.Restored = append(rep.Restored, id)
			ev := o.publish(EventRestored, m.s, "re-routed around degraded "+rep.Link)
			o.appendReroute(m, ev)
			continue
		}
		target := share
		if target < o.cfg.FloorMbps || !o.rerouteLocked(m, target) {
			evicted = append(evicted, o.teardownLocked(m, fmt.Sprintf("transport link %s degraded below slice floor", rep.Link), EventDeleted)...)
			rep.Dropped = append(rep.Dropped, id)
			continue
		}
		// The interim re-route at the fair share is its own WAL record (no
		// event — the EventResized below announces the shrink).
		o.appendReroute(m)
		// The re-route just rebuilt the paths at the fair share; shrink the
		// rest of the allocation to match. The chain head's quantized grant
		// records the new throughput, and every concurrent-group domain
		// (vEPC no-op, MEC app CPU, ...) follows the same target — shrinks
		// always fit, so errors are ignored like in the engine's restore
		// path.
		before := m.s.AllocatedMbps()
		tx := ctrl.Tx{Slice: id, PLMN: m.s.PLMN(), SLA: m.s.SLA(), DataCenter: m.s.DataCenter(),
			LatencyBudgetMs: o.latencyBudget(m.s.SLA())}
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
		m.sh.reallocate(before, m.s.AllocatedMbps())
		rep.Restored = append(rep.Restored, id)
		ev := o.publish(EventResized, m.s, fmt.Sprintf("shrunk to fair share of degraded %s", rep.Link))
		if o.persist != nil {
			// Unlike an engine resize, the shrink re-sizes no transport
			// paths (the re-route above already rebuilt them at the share)
			// and feeds the MEC app the raw share rather than the radio-
			// quantized value; PRBs capture the radio's final state even
			// when its resize failed and only AllocatedMbps moved.
			alloc := m.s.Allocation()
			o.appendRecord(recResize, &resizeRecord{
				Slice:       id,
				Mbps:        alloc.AllocatedMbps,
				PRBs:        alloc.PRBs,
				MECMbps:     target,
				ResizePaths: false,
			}, ev)
		}
	}
	o.dropFinishedAllLocked(evicted)
	o.auditSweepAllLocked()
	o.unlockAll()
	return rep, nil
}

// rerouteLocked rebuilds the slice's transport paths around the current
// topology at the given bandwidth, keeping its DC, driving the transport
// controller through its generic Domain surface (Release + Reserve + grant
// Apply) with the Set's Wrap decoration applied, so fault-injection and
// tracing wrappers observe restoration like any engine operation. Old
// reservations are released first (their bandwidth is stranded on the
// broken/degraded hop anyway, and the replacement may share the surviving
// hops); Release is idempotent, so staged fallbacks may call this
// repeatedly with shrinking targets. Returns success. The caller holds the
// slice's shard lock.
func (o *Orchestrator) rerouteLocked(m *managedSlice, mbps float64) bool {
	plmn := m.s.PLMN()
	sla := m.s.SLA()
	d := o.tb.Ctrl.Wrapped(o.tb.Ctrl.Transport)
	d.Release(m.s.ID(), plmn)
	g, cause := d.Reserve(ctrl.Tx{
		Slice:           m.s.ID(),
		PLMN:            plmn,
		SLA:             sla,
		DataCenter:      m.s.DataCenter(),
		Mbps:            mbps,
		LatencyBudgetMs: o.latencyBudget(sla),
	})
	if cause != nil {
		return false
	}
	m.s.UpdateAllocation(g.Apply)
	m.sh.reconfigurations.Add(1)
	return true
}

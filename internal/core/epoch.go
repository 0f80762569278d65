package core

import (
	"strconv"

	"repro/internal/ctrl"
	"repro/internal/forecast"
	"repro/internal/monitor"
	"repro/internal/slice"
)

// This file is the phase-pipelined control epoch — the Fig. 1 closed loop
// (monitor → analyze → optimize → reconfigure) restructured so its cost no
// longer means freezing the whole sharded engine (DESIGN.md §7). Every
// phase runs on the caller's goroutine, and P1–P3c walk the slices in
// submission order:
//
//	P1  collect   all shard locks: sample every active slice's offered
//	              load. The sampling draws from the shared simulation RNG,
//	              so this order is part of the fixed-seed determinism
//	              contract.
//	P2  schedule  all shard locks: one global RAN.ScheduleDense pass over
//	              the collected demand, each slice addressed by its
//	              binding (the cell scheduler and its CQI draw are
//	              genuinely global).
//	P3  analyze   one shard lock at a time: per-slice violation detection
//	              (RecordEpoch), forecaster update and, for a violation, the
//	              charge and its EventViolation — all in the slice's one
//	              critical section, so a teardown cannot land between
//	              counting a violation and billing it. Each live slice's
//	              provisioner and contract join the epoch's batch.
//	P3b provision no shard lock, epochMu only: one forecast.ProvisionEach
//	              fills every live slice's target, forecast + risk margin
//	              (the per-slice pipeline of the companion forecasting paper
//	              [4]), the margins four windows at a time. Only the epoch,
//	              squeezeAll and single-threaded replay touch forecasters,
//	              and epochMu serializes all three.
//	P3c commit    one shard lock at a time: cap the target at the slice's
//	              rollout cap, apply resizes through the transaction engine,
//	              roll the capacity ledger forward and collect the slice's
//	              telemetry row; then one AddEach writes every collected
//	              row. Resizes contend on the shared pools, so their order
//	              decides marginal outcomes; every violation is announced
//	              before the first resize.
//	P4  publish   telemetry barrier: push domain telemetry, fold the gain
//	              report and atomically publish the EpochSnapshot the read
//	              plane serves from.
//
// Between P2's unlock and each per-slice step, per-slice operations on
// other shards (admissions, teardowns, watches) proceed concurrently; the
// epoch re-checks slice liveness under the shard lock before touching it.
// Whole-registry passes (squeeze, restoration) cannot interleave: RunEpoch
// holds epochMu for the duration.

// sliceSeriesCapacity bounds the per-slice telemetry rings. Orchestrator-
// level and domain series keep the store's default capacity; per-slice
// rings are the ones that multiply by the slice count, and a bounded
// dashboard window is all they serve.
const sliceSeriesCapacity = 512

// epochItem carries one active slice through the epoch pipeline. P1 and P2
// fill the slice's entries in the index-aligned demand/served arrays
// (epochScratch); P3 fills live and charged, P3c target.
type epochItem struct {
	m      *managedSlice
	live   bool    // still Active when P3 reached it
	target float64 // P3b's target, capped in P3c; the ledger rolls to it
	// WAL capture (records.go): whether P3 charged a violation and P3c
	// rolled the ledger, and to what value.
	charged       bool
	ledgerUpdated bool
	ledgerTo      slice.Kbps
}

// epochScratch is the control epoch's working state, kept on the
// orchestrator and reused every epoch (guarded by epochMu) so a steady-state
// pass allocates nothing per slice. items, binds, demand and served are
// index-aligned: entry i of each belongs to the i-th measured slice in
// submission order, and that is the form they travel in through the RAN
// scheduling pass, which finds each slice's cells through its binding.
// provs, contracts and targets are P3b's batch, index-aligned with the live
// items in order. events and records feed the epoch's WAL record and are
// encoded before the next epoch can overwrite them. rows and the three
// columns after it are the telemetry rows P3c collects, one per slice that
// gets one, written in one monitor.AddEach before P4. series are the
// orchestrator's own epoch series (epochSeriesNames), resolved on the first
// epoch.
type epochScratch struct {
	items     []epochItem
	binds     []*ctrl.Binding
	demand    []float64
	served    []float64
	provs     []*forecast.Provisioner
	contracts []float64
	targets   []float64
	events    []Event
	records   []epochItemRecord
	rows      []*monitor.Rows
	rowDemand []float64
	rowServed []float64
	rowAlloc  []float64
	series    []*monitor.Series
}

// epochSeriesNames are the orchestrator-level series each epoch appends one
// sample to, in the order runEpoch writes them.
var epochSeriesNames = [...]string{
	"orchestrator/ran_epoch_utilization",
	"orchestrator/overbooking_ratio",
	"orchestrator/multiplexing_gain",
	"orchestrator/penalties_eur",
	"orchestrator/net_revenue_eur",
	"orchestrator/active_slices",
}

// violationDetail is an EventViolation's detail, "served %.1f of %.1f Mbps
// demanded" built without fmt's reflection.
func violationDetail(served, demand float64) string {
	var buf [64]byte
	b := append(buf[:0], "served "...)
	b = strconv.AppendFloat(b, served, 'f', 1, 64)
	b = append(b, " of "...)
	b = strconv.AppendFloat(b, demand, 'f', 1, 64)
	return string(append(b, " Mbps demanded"...))
}

// RunEpoch executes one pass of the Fig. 1 closed loop:
//
//  1. collect information about network utilization — sample every active
//     slice's offered load;
//  2. real-time monitoring — run the cell schedulers, measure delivered
//     throughput, charge SLA violations;
//  3. data analysis and feature extraction — feed the per-slice
//     forecasters with the new demand sample;
//  4. resource allocation optimization — compute each slice's new
//     provisioning target (forecast + risk margin, capped by contract);
//  5. automatic configuration of network elements — resize radio and
//     transport reservations where the target moved beyond hysteresis.
//
// It also pushes all telemetry, rolls the per-slice capacity-ledger entries
// forward to the new provisioning targets, and publishes the epoch's
// outcome as an atomically swapped EpochSnapshot.
//
// Steps 1–2 are the head (phases P1/P2, under every shard lock in index
// order — the only remaining stop-the-world window, and it is O(n) cheap).
// Step 3 and the violation charges run in one pass, one shard lock at a
// time (P3); step 4 is one batch over every live slice with no shard lock
// held (P3b); step 5 commits in a second per-slice pass (P3c). All of them
// walk the slices in submission order on the caller's goroutine, so a
// fixed-seed run is bit-identical at any shard count. See the file comment
// for the full phase/locking contract.
func (o *Orchestrator) RunEpoch() {
	o.runEpoch()
	// The durability boundary: fsync the epoch's records with no lock held
	// (test sinks read the state digest from inside Committed).
	o.commitPersist()
}

// runEpoch is RunEpoch's body; it holds epochMu for the duration and leaves
// the WAL commit to the caller.
func (o *Orchestrator) runEpoch() {
	o.epochMu.Lock()
	defer o.epochMu.Unlock()
	now := o.clock.Now()
	o.epochs.Add(1)

	// P1: demand collection, in submission order (the sampling draws from
	// the shared RNG, so order is part of determinism) — the roster's, as
	// it stands unless a shard inserted or evicted since the last pass.
	ep := &o.ep
	clear(ep.items) // release the previous epoch's slice pointers
	clear(ep.binds)
	clear(ep.rows)
	clear(ep.provs)
	ep.items, ep.binds, ep.demand = ep.items[:0], ep.binds[:0], ep.demand[:0]
	ep.rows, ep.rowDemand, ep.rowServed, ep.rowAlloc = ep.rows[:0], ep.rowDemand[:0], ep.rowServed[:0], ep.rowAlloc[:0]
	o.lockAll()
	for _, m := range o.rosterAllLocked() {
		if m.s.State() != slice.StateActive {
			continue
		}
		if m.demand != nil {
			m.lastDemand = m.demand.Sample(now)
			m.haveDemand = true
		}
		if !m.haveDemand {
			continue
		}
		ep.items = append(ep.items, epochItem{m: m})
		ep.binds = append(ep.binds, &m.bind)
		ep.demand = append(ep.demand, m.lastDemand)
	}
	items := ep.items
	if cap(ep.served) < len(items) {
		ep.served = make([]float64, len(items), cap(ep.items))
	}
	ep.served = ep.served[:len(items)]

	// P2: the global cell-scheduler pass and its violation inputs.
	ranUtil := o.tb.Ctrl.RAN.ScheduleDense(ep.binds, ep.demand, ep.served, o.cfg.ShareUnusedPRBs)
	o.unlockAll()

	// P3: monitor/analyze and charge, one slice at a time under its shard
	// lock. A teardown may have won the race since P2 released the locks
	// (live mode); RecordEpoch counts only an Active slice, so a dead one is
	// dropped from the epoch, never billed or announced after its
	// EventDeleted.
	ep.events = ep.events[:0]
	ep.provs, ep.contracts = ep.provs[:0], ep.contracts[:0]
	for i := range items {
		it := &items[i]
		m := it.m
		m.sh.mu.Lock()
		demand, served := ep.demand[i], ep.served[i]
		if counted, violated := m.s.RecordEpoch(demand, served, true); counted {
			it.live = true
			if m.series == nil {
				id := string(m.s.ID())
				m.series = o.store.Rows(sliceSeriesCapacity,
					monitor.SliceMetric(id, "demand_mbps"),
					monitor.SliceMetric(id, "served_mbps"),
					monitor.SliceMetric(id, "allocated_mbps"))
			}
			m.prov.Observe(demand)
			ep.provs = append(ep.provs, m.prov)
			ep.contracts = append(ep.contracts, m.s.SLA().ThroughputMbps)
			if violated {
				o.applyCharge(m)
				ep.events = append(ep.events, Event{})
				o.publishView(&ep.events[len(ep.events)-1], EventViolation, m.s, m.s.EventView(),
					violationDetail(served, demand))
				it.charged = true
			}
		}
		m.sh.mu.Unlock()
	}

	// P3b: every live slice's provisioning target in one batch, holding only
	// epochMu (see the file comment for why that is enough).
	if cap(ep.targets) < len(ep.provs) {
		ep.targets = make([]float64, len(ep.provs), cap(ep.provs))
	}
	ep.targets = ep.targets[:len(ep.provs)]
	forecast.ProvisionEach(ep.provs, ep.contracts, ep.targets)

	// P3c: apply reconfigurations and roll the ledger forward, in submission
	// order: resizes contend on the shared PRB/link/CPU pools, so their order
	// decides marginal grow/shrink outcomes — pinning it here keeps
	// fixed-seed runs identical at any shard count.
	nanos := now.UnixNano()
	targets := ep.targets
	for i := range items {
		it := &items[i]
		if !it.live {
			continue
		}
		m := it.m
		m.sh.mu.Lock()
		// The intent plane's rollout cap bounds the target (the canary
		// knob); resizeLocked still clamps to [floor, contract].
		it.target, targets = targets[0], targets[1:]
		if m.provCapMbps > 0 && it.target > m.provCapMbps {
			it.target = m.provCapMbps
		}
		// A slice torn down since P3 is not live here: no resize, no ledger
		// roll and no row — its ring leaves the store with it.
		if allocated, live, _ := o.resizeLocked(m, it.target); live {
			it.ledgerUpdated, it.ledgerTo = true, slice.ToKbps(it.target)
			o.applyLedgerRoll(m, it.ledgerTo)
			// The slice's telemetry row: what it asked for, what the cells
			// delivered and what it holds after this epoch's reconfiguration.
			ep.rows = append(ep.rows, m.series)
			ep.rowDemand = append(ep.rowDemand, ep.demand[i])
			ep.rowServed = append(ep.rowServed, ep.served[i])
			ep.rowAlloc = append(ep.rowAlloc, allocated)
		}
		m.sh.mu.Unlock()
	}
	// Every row of the epoch in one append: the rings share the store's
	// slab, so this takes its lock once.
	monitor.AddEach(nanos, ep.rows, ep.rowDemand, ep.rowServed, ep.rowAlloc)

	// P4: telemetry barrier — push domain telemetry, fold the gain report
	// and publish the epoch snapshot (the per-slice rows were written just
	// above). The fold runs under a momentary lockAll:
	// every counter update happens while holding a shard lock, so quiescing
	// the shards makes the snapshot one mutually consistent cut
	// (the lock-free Gain() alone guarantees only per-field exactness) —
	// O(shards) work, once per epoch.
	o.tb.Ctrl.PushTelemetry(o.store, now)
	o.lockAll()
	g := o.Gain()
	o.unlockAll()
	if ep.series == nil {
		for _, name := range epochSeriesNames {
			ep.series = append(ep.series, o.store.Series(name))
		}
	}
	for k, v := range [len(epochSeriesNames)]float64{
		ranUtil, g.OverbookingRatio, g.MultiplexingGain, g.PenaltyTotalEUR, g.NetRevenueEUR, float64(len(items)),
	} {
		ep.series[k].AddNanos(nanos, v)
	}
	snap := EpochSnapshot{
		Epoch:          int(o.epochs.Load()),
		At:             now,
		MeasuredSlices: len(items),
		RANUtilization: ranUtil,
		Gain:           g,
	}
	o.lastEpoch.Store(&snap)

	// WAL: one epoch record carrying every per-slice outcome (demand and
	// served samples, charges, ledger rolls) and the published snapshot
	// verbatim. The epoch's resize outcomes precede it as their own records
	// in commit order.
	if o.persist != nil {
		ep.records = ep.records[:0]
		for i := range items {
			it := &items[i]
			ep.records = append(ep.records, epochItemRecord{
				Slice:         it.m.s.ID(),
				Demand:        ep.demand[i],
				Served:        ep.served[i],
				Counted:       it.live,
				Charged:       it.charged,
				LedgerUpdated: it.ledgerUpdated,
				LedgerTo:      it.ledgerTo,
			})
		}
		// appendRecord encodes synchronously, so the scratch-backed events
		// and Items are free for reuse once it returns.
		o.appendRecord(recEpoch, &epochRecord{
			Epoch:    o.epochs.Load(),
			At:       now,
			RANUtil:  ranUtil,
			Snapshot: snap,
			Items:    ep.records,
		}, ep.events...)
	}

	// Audit barrier: snapshot monotonicity plus the full conservation/leak
	// sweep under a momentary all-shard quiesce — the same cut discipline
	// as the gain fold above (audit.go).
	if o.audit != nil {
		o.audit.ObserveEpoch(int(o.epochs.Load()), now)
		o.lockAll()
		o.auditSweepAllLocked()
		o.unlockAll()
	}

	// Checkpoint cadence: fold the log into a full-state snapshot every
	// SnapshotEvery epochs, anchored at the epoch record's sequence.
	if o.persist != nil && o.epochs.Load()%int64(o.cfg.SnapshotEvery) == 0 {
		o.checkpoint()
	}
}

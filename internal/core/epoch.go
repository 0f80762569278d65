package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/monitor"
	"repro/internal/slice"
)

// This file is the phase-pipelined control epoch — the Fig. 1 closed loop
// (monitor → analyze → optimize → reconfigure) restructured so its cost no
// longer means freezing the whole sharded engine (DESIGN.md §7):
//
//	P1  collect   serial, all shard locks: sample every active slice's
//	              offered load in submission order. The sampling draws from
//	              the shared simulation RNG, so this order is part of the
//	              fixed-seed determinism contract and must stay serial.
//	P2  schedule  serial, all shard locks: one global RAN.ScheduleEpoch
//	              pass over the collected demand (the cell scheduler and
//	              its CQI draw are genuinely global).
//	P3  analyze   parallel, one worker per shard, each holding only its
//	              own shard lock: per-slice violation detection
//	              (RecordEpoch), forecaster update, provisioning target —
//	              the embarrassingly parallel per-slice pipeline of the
//	              companion forecasting paper [4] — plus the shard's
//	              demand/served telemetry flushed as one batch.
//	P3c commit    serial, submission order, one shard lock at a time:
//	              charge and publish SLA violations, then apply resizes
//	              through the transaction engine and roll the capacity
//	              ledger forward. Everything order-sensitive (domain
//	              mutations, event sequence) happens here, in exactly
//	              the order the pre-pipeline epoch performed it — the
//	              determinism argument is that P3 computes only per-slice
//	              values, and every shared-state mutation is confined to
//	              the serial phases.
//	P4  publish   telemetry barrier: flush the remaining batches, fold the
//	              gain report and atomically publish the EpochSnapshot the
//	              read plane serves from.
//
// Between P2's unlock and each commit step, per-slice operations on other
// shards (admissions, teardowns, watches) proceed concurrently; the epoch
// re-checks slice liveness under the shard lock before touching it. Whole-
// registry passes (squeeze, restoration) cannot interleave: RunEpoch holds
// epochMu for the duration.

// sliceSeriesCapacity bounds the per-slice telemetry rings. Orchestrator-
// level and domain series keep the store's default capacity; per-slice
// rings are the ones that multiply by the slice count, and a bounded
// dashboard window is all they serve.
const sliceSeriesCapacity = 512

// epochItem carries one active slice through the epoch pipeline. The serial
// phases fill the slice's entries in the index-aligned demand/served arrays
// (epochScratch); the slice's shard worker fills live, violated and target.
type epochItem struct {
	m        *managedSlice
	live     bool // still Active when its shard worker reached it
	violated bool
	target   float64
	// WAL capture (persist.go): whether the commit phase actually charged
	// the violation and rolled the ledger, and to what value.
	charged       bool
	ledgerUpdated bool
	ledgerTo      slice.Kbps
}

// epochScratch is the control epoch's working state, kept on the
// orchestrator and reused every epoch (guarded by epochMu) so a steady-state
// pass allocates nothing per slice. items, plmns, demand and served are
// index-aligned: entry i of each belongs to the i-th measured slice in
// submission order, and that is the form they travel in through the RAN
// scheduling pass. groups[k] lists the item indexes of shard k for the
// parallel analysis phase; events and records feed the epoch's WAL record
// and are encoded before the next epoch can overwrite them.
type epochScratch struct {
	items   []epochItem
	plmns   []slice.PLMN
	demand  []float64
	served  []float64
	groups  [][]int
	events  []Event
	records []epochItemRecord
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
// Steps 1–2 are the serial head (phases P1/P2, under every shard lock in
// index order — the only remaining stop-the-world window, and it is O(n)
// cheap). Steps 3–4 run in parallel shard workers (P3); step 5 and all
// other shared-state mutations commit serially in submission order (P3c),
// so a fixed-seed run is bit-identical at any shard count. See the file
// comment for the full phase/locking contract.
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
	// the shared RNG, so order is part of determinism).
	ep := &o.ep
	clear(ep.items) // release the previous epoch's slice pointers
	ep.items, ep.plmns, ep.demand = ep.items[:0], ep.plmns[:0], ep.demand[:0]
	o.lockAll()
	walk := o.walkAllLocked()
	for m := walk.next(); m != nil; m = walk.next() {
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
		ep.plmns = append(ep.plmns, m.s.PLMN())
		ep.demand = append(ep.demand, m.lastDemand)
	}
	items := ep.items
	if cap(ep.served) < len(items) {
		ep.served = make([]float64, len(items), cap(ep.items))
	}
	ep.served = ep.served[:len(items)]

	// P2: the global cell-scheduler pass and its violation inputs.
	ranUtil := o.tb.Ctrl.RAN.ScheduleDense(ep.plmns, ep.demand, ep.served, o.cfg.ShareUnusedPRBs)
	o.unlockAll()

	// P3: per-shard parallel monitor/analyze/optimize workers.
	o.analyzePhase(now)

	// P3c: ordered commit. First charge and publish every SLA violation in
	// submission order, each under its shard lock so a concurrent Delete
	// serializes against the charge — a slice torn down since P3 is
	// dropped, never billed or announced after its EventDeleted...
	ep.events = ep.events[:0]
	for i := range items {
		it := &items[i]
		if !it.violated {
			continue
		}
		m := it.m
		m.sh.mu.Lock()
		if m.s.State() == slice.StateActive {
			o.applyCharge(m)
			ev := o.publish(EventViolation, m.s,
				fmt.Sprintf("served %.1f of %.1f Mbps demanded", ep.served[i], ep.demand[i]))
			it.charged = true
			ep.events = append(ep.events, ev)
		}
		m.sh.mu.Unlock()
	}
	// ...then apply reconfigurations and roll the ledger forward, still in
	// submission order: resizes contend on the shared PRB/link/CPU pools,
	// so their order decides marginal grow/shrink outcomes — pinning it here
	// keeps fixed-seed runs identical at any shard count.
	nanos := now.UnixNano()
	for i := range items {
		it := &items[i]
		if !it.live {
			continue
		}
		m := it.m
		m.sh.mu.Lock()
		if v := m.s.ReconfigView(); v.State == slice.StateActive {
			allocated, _ := o.resizeLocked(m, v, it.target)
			it.ledgerUpdated, it.ledgerTo = true, slice.ToKbps(it.target)
			o.applyLedgerRoll(m, it.ledgerTo)
			// The slice's telemetry row: what it asked for, what the cells
			// delivered and what it holds after this epoch's reconfiguration.
			// A slice torn down since P3 gets no row — its ring leaves the
			// store with it.
			m.series.Add(nanos, ep.demand[i], ep.served[i], allocated)
		}
		m.sh.mu.Unlock()
	}

	// P4: telemetry barrier — push domain telemetry, fold the gain report
	// and publish the epoch snapshot (the per-slice samples went straight to
	// their rings in P3 and P3c). The fold runs under a momentary lockAll:
	// every counter update happens while holding a shard lock, so quiescing
	// the shards makes the snapshot one mutually consistent cut
	// (the lock-free Gain() alone guarantees only per-field exactness) —
	// O(shards) work, once per epoch.
	o.tb.Ctrl.PushTelemetry(o.store, now)
	o.lockAll()
	g := o.Gain()
	o.unlockAll()
	o.store.Record("orchestrator/ran_epoch_utilization", now, ranUtil)
	o.store.Record("orchestrator/overbooking_ratio", now, g.OverbookingRatio)
	o.store.Record("orchestrator/multiplexing_gain", now, g.MultiplexingGain)
	o.store.Record("orchestrator/penalties_eur", now, g.PenaltyTotalEUR)
	o.store.Record("orchestrator/net_revenue_eur", now, g.NetRevenueEUR)
	o.store.Record("orchestrator/active_slices", now, float64(len(items)))
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

// analyzePhase is P3: per-slice violation detection, forecaster update and
// provisioning-target computation, partitioned by shard. Each worker holds
// only its own shard's lock, touches only that shard's slices (their
// slice-private forecasters and telemetry rings) and its own entries of the
// epoch's arrays — no shared state is written, which is what makes the phase
// safe to run on one goroutine per shard. With a single shard (or a single
// populated shard) the phase runs inline: that is the serial path the
// shard-equivalence tests compare against.
func (o *Orchestrator) analyzePhase(now time.Time) {
	ep := &o.ep
	if len(ep.items) == 0 {
		return
	}
	if len(ep.groups) != len(o.shards) {
		ep.groups = make([][]int, len(o.shards))
	}
	for k := range ep.groups {
		ep.groups[k] = ep.groups[k][:0]
	}
	populated := 0
	for i := range ep.items {
		k := ep.items[i].m.sh.idx
		if len(ep.groups[k]) == 0 {
			populated++
		}
		ep.groups[k] = append(ep.groups[k], i)
	}
	nanos := now.UnixNano()
	if populated == 1 {
		o.analyzeShard(nanos, ep.groups[ep.items[0].m.sh.idx])
		return
	}
	var wg sync.WaitGroup
	for _, idxs := range ep.groups {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(idxs []int) {
			defer wg.Done()
			o.analyzeShard(nanos, idxs)
		}(idxs)
	}
	wg.Wait()
}

// analyzeShard is one P3 worker: the items at idxs all live on one shard.
func (o *Orchestrator) analyzeShard(nanos int64, idxs []int) {
	ep := &o.ep
	sh := ep.items[idxs[0]].m.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, i := range idxs {
		it := &ep.items[i]
		m := it.m
		// A teardown may have won the race since P1 released the
		// locks (live mode); a dead slice is dropped from the epoch.
		if m.s.State() != slice.StateActive {
			continue
		}
		demand, served := ep.demand[i], ep.served[i]
		it.live = true
		it.violated = m.s.RecordEpoch(demand, served)
		if m.series == nil {
			id := string(m.s.ID())
			m.series = o.store.Rows(sliceSeriesCapacity,
				monitor.SliceMetric(id, "demand_mbps"),
				monitor.SliceMetric(id, "served_mbps"),
				monitor.SliceMetric(id, "allocated_mbps"))
		}
		m.prov.Observe(demand)
		it.target = m.prov.Provision(m.s.SLA().ThroughputMbps)
		// The intent plane's rollout cap bounds the target (the canary
		// knob); resizeLocked still clamps to [floor, contract].
		if m.provCapMbps > 0 && it.target > m.provCapMbps {
			it.target = m.provCapMbps
		}
	}
}

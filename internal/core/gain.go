package core

import (
	"sync/atomic"
	"time"

	"repro/internal/slice"
)

// This file is the orchestrator's lock-free read plane: the gain/penalty
// report, the active-slice count and the per-epoch snapshot are served from
// per-shard atomic counters, never from a whole-registry pass or a lock — a
// dashboard poll costs O(shards) atomic loads, and admission never waits on
// a reader.
//
// There is one class of counter (see also DESIGN.md §7.3): every total —
// admission tallies, the rejection histogram, money in MicroEUR, live
// capacity in Kbps — is an int64 a shard updates with atomic adds while it
// holds its own lock. Integer addition commutes, so the sum over shards is
// the same at any shard count and under any interleaving, and a slice's
// release subtracts exactly what its admission and resizes added: an empty
// registry reads exactly zero.

// counters is one shard's share of the totals.
type counters struct {
	admitted         atomic.Int64
	rejected         atomic.Int64
	violations       atomic.Int64
	reconfigurations atomic.Int64
	// active counts slices currently in StateActive or StateReconfiguring
	// (incremented on activation, decremented on teardown from either
	// state).
	active atomic.Int64

	revenue, penalty      atomic.Int64 // slice.MicroEUR
	contracted, allocated atomic.Int64 // slice.Kbps, over live (installing or active) slices
	rejectReasons         [len(slice.RejectCodes)]atomic.Int64
}

// admit records an accepted request: its price joins the revenue and its
// contract and initial allocation join the live totals.
func (c *counters) admit(priceEUR, contractedMbps, allocatedMbps float64) {
	c.admitted.Add(1)
	c.revenue.Add(int64(slice.ToMicroEUR(priceEUR)))
	c.contracted.Add(int64(slice.ToKbps(contractedMbps)))
	c.allocated.Add(int64(slice.ToKbps(allocatedMbps)))
}

// reject buckets a rejection under its stable taxonomy code.
func (c *counters) reject(code slice.RejectCode) {
	c.rejected.Add(1)
	c.rejectReasons[code.Ordinal()].Add(1)
}

// release removes a torn-down slice's contract and allocation from the live
// totals.
func (c *counters) release(contractedMbps, allocatedMbps float64) {
	c.contracted.Add(-int64(slice.ToKbps(contractedMbps)))
	c.allocated.Add(-int64(slice.ToKbps(allocatedMbps)))
}

// reallocate moves a live slice's share of the allocated total after a
// reconfiguration. Both ends are converted, not their difference, so the
// slice's contributions telescope to its current allocation.
func (c *counters) reallocate(beforeMbps, afterMbps float64) {
	if d := slice.ToKbps(afterMbps) - slice.ToKbps(beforeMbps); d != 0 {
		c.allocated.Add(int64(d))
	}
}

// charge bills one SLA-violation epoch.
func (c *counters) charge(penaltyEUR float64) {
	c.violations.Add(1)
	c.penalty.Add(int64(slice.ToMicroEUR(penaltyEUR)))
}

// counterState is the sum of the shards' counters: what Gain reports and
// the checkpoint stores (restore folds it into shard 0 — only sums are ever
// read).
type counterState struct {
	Admitted         int64
	Rejected         int64
	Violations       int64
	Reconfigurations int64
	Active           int64
	Revenue          slice.MicroEUR
	Penalty          slice.MicroEUR
	Contracted       slice.Kbps
	Allocated        slice.Kbps
	RejectReasons    map[string]int
}

// totals sums the counters across shards; each field is exact, the set is
// one cut only under lockAll.
func (o *Orchestrator) totals() counterState {
	t := counterState{RejectReasons: make(map[string]int)}
	for _, sh := range o.shards {
		t.Admitted += sh.admitted.Load()
		t.Rejected += sh.rejected.Load()
		t.Violations += sh.violations.Load()
		t.Reconfigurations += sh.reconfigurations.Load()
		t.Active += sh.active.Load()
		t.Revenue += slice.MicroEUR(sh.revenue.Load())
		t.Penalty += slice.MicroEUR(sh.penalty.Load())
		t.Contracted += slice.Kbps(sh.contracted.Load())
		t.Allocated += slice.Kbps(sh.allocated.Load())
		for i := range sh.rejectReasons {
			if n := sh.rejectReasons[i].Load(); n != 0 {
				t.RejectReasons[string(slice.RejectCodes[i])] += int(n)
			}
		}
	}
	return t
}

// restore loads checkpointed totals into the shard's counters.
func (c *counters) restore(t counterState) {
	c.admitted.Store(t.Admitted)
	c.rejected.Store(t.Rejected)
	c.violations.Store(t.Violations)
	c.reconfigurations.Store(t.Reconfigurations)
	c.active.Store(t.Active)
	c.revenue.Store(int64(t.Revenue))
	c.penalty.Store(int64(t.Penalty))
	c.contracted.Store(int64(t.Contracted))
	c.allocated.Store(int64(t.Allocated))
	for code, n := range t.RejectReasons {
		c.rejectReasons[slice.RejectCode(code).Ordinal()].Add(int64(n))
	}
}

// GainReport is the dashboard's "current gains vs. penalties" panel plus
// the admission counters.
type GainReport struct {
	// CapacityMbps is the physical radio capacity at mean CQI.
	CapacityMbps float64 `json:"capacity_mbps"`
	// ContractedMbps sums the SLAs of live (installing or active) slices.
	ContractedMbps float64 `json:"contracted_mbps"`
	// AllocatedMbps sums the current (possibly shrunk) reservations.
	AllocatedMbps float64 `json:"allocated_mbps"`
	// OverbookingRatio is ContractedMbps / CapacityMbps: above 1 the
	// operator has sold more than it physically owns.
	OverbookingRatio float64 `json:"overbooking_ratio"`
	// MultiplexingGain is ContractedMbps / AllocatedMbps: how much SLA
	// each reserved Mbps carries (1.0 without overbooking).
	MultiplexingGain float64 `json:"multiplexing_gain"`
	// Admission counters.
	Admitted int `json:"admitted"`
	Rejected int `json:"rejected"`
	Active   int `json:"active"`
	// RejectReasons histograms rejection causes (experiment D6).
	RejectReasons map[string]int `json:"reject_reasons"`
	// Money (the gains-vs-penalties trade-off of Section 3).
	RevenueTotalEUR float64 `json:"revenue_total_eur"`
	PenaltyTotalEUR float64 `json:"penalty_total_eur"`
	NetRevenueEUR   float64 `json:"net_revenue_eur"`
	// ViolationEpochs counts SLA-violation epochs across all slices.
	ViolationEpochs int `json:"violation_epochs"`
	// Reconfigurations counts overbooking resizes applied.
	Reconfigurations int `json:"reconfigurations"`
	// Epochs counts control-loop passes.
	Epochs int `json:"epochs"`
}

// Gain returns the current gain/penalty report. Every individual counter is
// exact — it reflects all completed transitions — and the read is cheap:
// O(shards) atomic loads and no lock, so a dashboard polling Gain at any
// rate never stalls admission or the epoch. The report is not one atomic cut
// across fields, though: a transition committing concurrently with the read
// may be visible in some counters but not yet in others for that single
// poll. Epoch-aligned, mutually consistent numbers come from LastEpoch,
// whose report is folded under a momentary all-shard quiesce.
func (o *Orchestrator) Gain() GainReport {
	t := o.totals()
	g := GainReport{
		CapacityMbps:     o.tb.Ctrl.RAN.CapacityMbps(),
		ContractedMbps:   t.Contracted.Mbps(),
		AllocatedMbps:    t.Allocated.Mbps(),
		Admitted:         int(t.Admitted),
		Rejected:         int(t.Rejected),
		Active:           int(t.Active),
		RejectReasons:    t.RejectReasons,
		RevenueTotalEUR:  t.Revenue.EUR(),
		PenaltyTotalEUR:  t.Penalty.EUR(),
		NetRevenueEUR:    (t.Revenue - t.Penalty).EUR(),
		ViolationEpochs:  int(t.Violations),
		Reconfigurations: int(t.Reconfigurations),
		Epochs:           int(o.epochs.Load()),
	}
	if g.CapacityMbps > 0 {
		g.OverbookingRatio = g.ContractedMbps / g.CapacityMbps
	}
	if g.AllocatedMbps > 0 {
		g.MultiplexingGain = g.ContractedMbps / g.AllocatedMbps
	}
	return g
}

// ActiveCount returns the number of active (traffic-carrying) slices from
// the per-shard counters — no shard lock, no registry walk.
func (o *Orchestrator) ActiveCount() int {
	n := 0
	for _, sh := range o.shards {
		n += int(sh.active.Load())
	}
	return n
}

// EpochSnapshot is the atomically published outcome of one control epoch:
// the telemetry barrier (phase P4) folds the epoch's results into one of
// these and swaps it in with a single atomic store. Readers (REST,
// dashboard) get a consistent epoch-aligned view that is at most one epoch
// stale, without touching any lock the write path uses.
type EpochSnapshot struct {
	// Epoch is the control-loop pass counter (1-based).
	Epoch int `json:"epoch"`
	// At is the epoch's timestamp on the driving clock.
	At time.Time `json:"at"`
	// MeasuredSlices counts the active slices the epoch sampled, scheduled
	// and reprovisioned.
	MeasuredSlices int `json:"measured_slices"`
	// RANUtilization is the scheduled PRB utilization of the epoch [0,1].
	RANUtilization float64 `json:"ran_utilization"`
	// Gain is the gain/penalty report folded at the end of the epoch.
	Gain GainReport `json:"gain"`
}

// LastEpoch returns the snapshot published by the most recent control epoch
// and whether any epoch has completed yet. The snapshot is immutable; the
// returned histogram is a copy.
func (o *Orchestrator) LastEpoch() (EpochSnapshot, bool) {
	p := o.lastEpoch.Load()
	if p == nil {
		return EpochSnapshot{}, false
	}
	snap := *p
	reasons := make(map[string]int, len(p.Gain.RejectReasons))
	for k, v := range p.Gain.RejectReasons {
		reasons[k] = v
	}
	snap.Gain.RejectReasons = reasons
	return snap, true
}

// LedgerLoad returns the capacity ledger's current total — the estimated
// radio load of every live slice — in Mbps, for reports.
func (o *Orchestrator) LedgerLoad() float64 { return o.ledger.Load().Mbps() }

// LedgerKbps is the same total in book units. The federation tier reads it
// at each barrier to refresh the member's advertised headroom, and the
// federation conservation invariant uses it as ground truth.
func (o *Orchestrator) LedgerKbps() slice.Kbps { return o.ledger.Load() }

// AggregateGain folds per-cluster gain reports into one federation-wide
// report: capacities, contracts, allocations, counters and money sum;
// rejection histograms merge; the ratios are recomputed from the summed
// totals (a ratio of sums, not a sum of ratios); Epochs reports the furthest
// member epoch. The fold is order-independent for the integer counters; the
// reports' Mbps/EUR fields are floats derived at each member's edge, so
// callers that need bit-identical sums across member orderings must pass the
// reports in a canonical (name-sorted) order, which is exactly what the
// federation registry does.
func AggregateGain(reports []GainReport) GainReport {
	g := GainReport{RejectReasons: make(map[string]int)}
	for _, r := range reports {
		g.CapacityMbps += r.CapacityMbps
		g.ContractedMbps += r.ContractedMbps
		g.AllocatedMbps += r.AllocatedMbps
		g.Admitted += r.Admitted
		g.Rejected += r.Rejected
		g.Active += r.Active
		g.RevenueTotalEUR += r.RevenueTotalEUR
		g.PenaltyTotalEUR += r.PenaltyTotalEUR
		g.ViolationEpochs += r.ViolationEpochs
		g.Reconfigurations += r.Reconfigurations
		for code, n := range r.RejectReasons {
			g.RejectReasons[code] += n
		}
		if r.Epochs > g.Epochs {
			g.Epochs = r.Epochs
		}
	}
	if g.CapacityMbps > 0 {
		g.OverbookingRatio = g.ContractedMbps / g.CapacityMbps
	}
	if g.AllocatedMbps > 0 {
		g.MultiplexingGain = g.ContractedMbps / g.AllocatedMbps
	}
	g.NetRevenueEUR = g.RevenueTotalEUR - g.PenaltyTotalEUR
	return g
}

package core

import (
	"repro/internal/ctrl"
	"repro/internal/slice"
)

// This file is the span-aware face of the two-phase engine: a cross-cluster
// slice span is one transaction over an ordered list of (domain, tx) legs —
// each leg typically a ctrl.ClusterDomain wrapping a whole member
// orchestrator — driven through the exact package-level reuse points the
// single-cluster install uses (safeReserve, commitGrants, abortGrants). The
// engine stays unmodified: a federated admission inherits reverse-order
// rollback, the typed rejection taxonomy and the fault-injection hooks
// because it runs the same code, not a parallel copy.

// SpanLeg is one leg of a cross-cluster span: the domain that owns it and
// the transactional context it is reserved under.
type SpanLeg struct {
	Domain ctrl.Domain
	Tx     ctrl.Tx
}

// SpanTx is an installed span transaction: the committed grants, in
// acquisition order, for the caller to abort or inspect.
type SpanTx struct {
	grants []domainGrant
}

// Grants returns the committed grants in acquisition order.
func (t *SpanTx) Grants() []ctrl.Grant {
	out := make([]ctrl.Grant, len(t.grants))
	for i, dg := range t.grants {
		out[i] = dg.g
	}
	return out
}

// Abort rolls the whole span back in reverse acquisition order. Safe after
// Commit (the engine contract) and idempotent per grant.
func (t *SpanTx) Abort() { abortGrants(t.grants) }

// InstallSpan runs the two-phase transaction across the legs: phase one
// reserves each leg in order (any failure aborts everything reserved so far
// in reverse order), phase two commits in acquisition order (a commit
// failure likewise unwinds everything). Both phases are panic-contained per
// leg via the engine's safe wrappers, so one misbehaving cluster converts to
// a typed RejectInternal instead of crashing the federation tier.
func InstallSpan(legs []SpanLeg) (*SpanTx, *slice.RejectionCause) {
	grants := make([]domainGrant, 0, len(legs))
	for _, l := range legs {
		g, cause := safeReserve(l.Domain, l.Tx)
		if cause != nil {
			abortGrants(grants)
			return nil, cause
		}
		grants = append(grants, domainGrant{d: l.Domain, g: g})
	}
	if cause := commitGrants(grants); cause != nil {
		// commitGrants already aborted everything in reverse order.
		return nil, cause
	}
	return &SpanTx{grants: grants}, nil
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

// Federation conservation sweep: the hierarchical-ledger counterpart of the
// per-cluster Sweep. The federation tier keeps three books per member —
// advertised capacity, placement headroom and the reserved sum of live
// span-leg contracts — and a span registry mapping every federated span to
// its member-local leg slices. FedSweep proves, at every federation barrier:
//
//	fed-ledger   headroom + member ledger == advertised for every reachable
//	             member (the barrier refresh re-anchored headroom from a
//	             fresh ledger read; a second independent read here verifies
//	             the refresh pipeline, partition bookkeeping included), and
//	             the incremental reserved book equals the span registry's
//	             per-member leg walk. No book may go negative and headroom
//	             never exceeds advertised.
//	fed-leak     every "fed:"-tagged live slice on a reachable member maps
//	             to a registered span leg (orphans from an unhealed
//	             partition are exempt, once each), and every registered leg
//	             on a reachable member is actually alive there — nothing
//	             survives a span rollback, partition teardown or heal.
//
// Like the per-cluster sweep, the package stays core-agnostic: the
// federation passes neutral views built under its own mutex in the same
// scheduler event as the barrier refresh, so the cut is consistent.
package invariant

import "repro/internal/slice"

// FedMemberView is one member cluster's books at the sweep cut.
type FedMemberView struct {
	Name  string
	Alive bool
	// Advertised/Headroom/Reserved are the federation-tier books.
	Advertised, Headroom, Reserved slice.Kbps
	// Ledger is the member's capacity-ledger load, read fresh from the
	// member after the barrier refresh (only meaningful when Alive).
	Ledger slice.Kbps
	// FedSlices maps every live "fed:"-tagged member slice to its owning
	// span ID (only populated when Alive — a partitioned member cannot be
	// consulted).
	FedSlices map[slice.ID]slice.ID
}

// FedLegView is one registered span leg.
type FedLegView struct {
	Member   string
	Leg      slice.ID
	Contract slice.Kbps
}

// FedSpanView is one registered span and its legs.
type FedSpanView struct {
	ID   slice.ID
	Legs []FedLegView
}

// FedSweepInput is everything one federation conservation sweep needs.
type FedSweepInput struct {
	Members []FedMemberView
	Spans   []FedSpanView
	// Orphans lists member-local leg IDs stranded on unreachable members by
	// a partition, keyed by member name; they are exempt from leak checks
	// until the heal deletes them.
	Orphans map[string][]slice.ID
}

// FedSweep runs the federation conservation and leak audit over one
// barrier cut.
func (a *Auditor) FedSweep(in FedSweepInput) {
	a.mu.Lock()
	a.sweeps++
	a.mu.Unlock()

	// Walk the span registry: per-member reserved sums and the leg->span
	// index the leak checks cross-reference.
	reservedWalk := make(map[string]slice.Kbps, len(in.Members))
	legSpan := make(map[string]map[slice.ID]slice.ID, len(in.Members))
	for _, sp := range in.Spans {
		if len(sp.Legs) == 0 {
			a.record("fed-ledger", "span %s registered with no legs", sp.ID)
		}
		for _, leg := range sp.Legs {
			if leg.Contract <= 0 {
				a.record("fed-ledger", "span %s leg %s on %s holds non-positive contract %d kbps",
					sp.ID, leg.Leg, leg.Member, leg.Contract)
			}
			reservedWalk[leg.Member] += leg.Contract
			m := legSpan[leg.Member]
			if m == nil {
				m = make(map[slice.ID]slice.ID)
				legSpan[leg.Member] = m
			}
			m[leg.Leg] = sp.ID
		}
	}

	orphaned := make(map[string]map[slice.ID]bool, len(in.Orphans))
	for name, legs := range in.Orphans {
		m := make(map[slice.ID]bool, len(legs))
		for _, id := range legs {
			m[id] = true
		}
		orphaned[name] = m
	}

	for _, mv := range in.Members {
		if mv.Headroom < 0 {
			a.record("fed-ledger", "member %s headroom negative: %d kbps", mv.Name, mv.Headroom)
		}
		if mv.Reserved < 0 {
			a.record("fed-ledger", "member %s reserved book negative: %d kbps", mv.Name, mv.Reserved)
		}
		if mv.Headroom > mv.Advertised {
			a.record("fed-ledger", "member %s headroom %d exceeds advertised %d kbps",
				mv.Name, mv.Headroom, mv.Advertised)
		}
		if walk := reservedWalk[mv.Name]; mv.Reserved != walk {
			a.record("fed-ledger", "member %s reserved book %d kbps != Σ registered legs %d (Δ %d)",
				mv.Name, mv.Reserved, walk, mv.Reserved-walk)
		}
		legs := legSpan[mv.Name]
		if !mv.Alive {
			// Unreachable: the books are frozen and the member cannot be
			// consulted; a reachable-member walk would be ground truth from
			// the wrong side of the partition. Spans never keep legs here —
			// isolate() rolls them back — so any registered leg is a bug.
			for leg, span := range legs {
				a.record("fed-leak", "span %s keeps leg %s on unreachable member %s", span, leg, mv.Name)
			}
			continue
		}
		// Conservation: the barrier refresh anchored headroom = advertised −
		// ledger; re-deriving it from an independent ledger read proves the
		// refresh pipeline (skip lists, partition flags, clamping) kept the
		// identity rather than checking a − b == a − b. The refresh clamps
		// negative headroom to zero, so only over-budget members are exempt.
		if mv.Ledger <= mv.Advertised && mv.Headroom+mv.Ledger != mv.Advertised {
			a.record("fed-ledger", "member %s headroom %d + ledger %d != advertised %d kbps (Δ %d)",
				mv.Name, mv.Headroom, mv.Ledger, mv.Advertised, mv.Headroom+mv.Ledger-mv.Advertised)
		}
		// Leak-freedom, both directions.
		for legID, spanID := range mv.FedSlices {
			if orphaned[mv.Name][legID] {
				continue
			}
			if got, ok := legs[legID]; !ok {
				a.record("fed-leak", "member %s live leg %s (span %s) has no registered span leg",
					mv.Name, legID, spanID)
			} else if got != spanID {
				a.record("fed-leak", "member %s leg %s tagged for span %s but registered to span %s",
					mv.Name, legID, spanID, got)
			}
		}
		for legID, spanID := range legs {
			if _, ok := mv.FedSlices[legID]; !ok {
				a.record("fed-leak", "span %s registers leg %s on %s but the member no longer holds it",
					spanID, legID, mv.Name)
			}
		}
	}
}

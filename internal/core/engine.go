package core

import (
	"repro/internal/ctrl"
	"repro/internal/slice"
)

// safeReserve runs d.Reserve, converting a panic (a double-release bug, a
// corrupted substrate, a misbehaving pluggable domain) into a typed
// RejectInternal cause: the transaction fails and rolls back through the
// normal rejection path instead of crashing the orchestrator mid-install.
func safeReserve(d ctrl.Domain, tx ctrl.Tx) (g ctrl.Grant, cause *slice.RejectionCause) {
	defer func() {
		if r := recover(); r != nil {
			g = nil
			cause = slice.Rejectf(slice.RejectInternal, d.Domain(), "%s: panic in reserve: %v", d.Domain(), r)
		}
	}()
	return d.Reserve(tx)
}

// safeCommit is safeReserve for phase two. The returned error carries a
// typed cause so commitGrants' classification preserves RejectInternal.
func safeCommit(d ctrl.Domain, g ctrl.Grant) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = slice.Rejectf(slice.RejectInternal, d.Domain(), "%s: panic in commit: %v", d.Domain(), r)
		}
	}()
	return d.Commit(g)
}

// safeAbort swallows a panic from one domain's rollback so the reverse-order
// unwind always reaches every remaining grant — a partial rollback would
// leak everything behind the panicking domain.
func safeAbort(d ctrl.Domain, g ctrl.Grant) {
	defer func() { _ = recover() }()
	d.Abort(g)
}

// This file is the generic multi-domain two-phase transaction engine: the
// one place that knows how to reserve, commit, abort, resize and release a
// slice across an ordered chain of domains. It drives every domain through
// the uniform ctrl.Domain surface and never branches on domain identity —
// adding a domain (see the MEC controller) changes the testbed's
// registration, not this file.
//
// Execution plan (from ctrl.Set):
//
//   - The *chain* (radio → transport) runs sequentially; each stage is
//     sized to the previous grant's effective throughput, so transport
//     paths always match what the radio actually granted.
//   - The *concurrent group* (cloud vEPC, MEC apps, any Extra domain) is
//     independent of the chain. It reserves first, inline and in
//     registration order, and its results are folded in after the chain,
//     so a chain failure still outranks a group failure.
//
// Rollback is reverse acquisition order, automatic, on any failure: a
// reserve or commit failure aborts every grant taken so far (concurrent
// group first, then the chain backwards), and the caller releases the PLMN
// and capacity-ledger entry it acquired before the transaction.

// txEngine is the orchestrator's compiled execution plan.
type txEngine struct {
	chain []ctrl.Domain // sequential, throughput-threaded
	async []ctrl.Domain // independent of the chain, joined in order
	all   []ctrl.Domain // chain then async — the logical acquisition order
	// fixedLatencyMs sums the fixed processing contributions of every
	// registered domain (ctrl.LatencyContributor — a capability query,
	// not an identity branch); the engine deducts it from every latency
	// budget it hands out.
	fixedLatencyMs float64
}

func newTxEngine(set ctrl.Set) txEngine {
	chain, async := set.Chain(), set.Async()
	all := make([]ctrl.Domain, 0, len(chain)+len(async))
	all = append(all, chain...)
	all = append(all, async...)
	e := txEngine{chain: chain, async: async, all: all}
	for _, d := range all {
		if lc, ok := d.(ctrl.LatencyContributor); ok {
			e.fixedLatencyMs += lc.ProcessingLatencyMs()
		}
	}
	return e
}

// latencyBudget is the latency budget handed to every domain: the SLA bound
// minus the vEPC user-plane processing share and every registered domain's
// fixed processing contribution.
func (o *Orchestrator) latencyBudget(sla slice.SLA) float64 {
	return sla.MaxLatencyMs - epcProcMs - o.domains.fixedLatencyMs
}

// sliceTx is the one constructor of a slice's ctrl.Tx: install, the engine
// resize, the degradation shrink and the re-route all build theirs here, so
// every one carries the slice's binding — the controllers write its handles
// there and resize through them. plmn and dc are the caller's (install's are
// not in the allocation yet); mbps is what the stage sizes for, 0 for a
// resize, which takes its own. The caller holds m's shard lock, which guards
// the binding, or is m's install, which owns it until registration.
func (o *Orchestrator) sliceTx(m *managedSlice, plmn slice.PLMN, dc string, mbps float64) ctrl.Tx {
	sla := m.s.SLA()
	return ctrl.Tx{
		Slice:           m.s.ID(),
		PLMN:            plmn,
		SLA:             sla,
		DataCenter:      dc,
		Mbps:            mbps,
		LatencyBudgetMs: o.latencyBudget(sla),
		Binding:         &m.bind,
	}
}

// domainGrant pairs a grant with its owning domain so rollback never needs
// to rediscover who granted what.
type domainGrant struct {
	d ctrl.Domain
	g ctrl.Grant
}

// grantList is the stack array a caller of reserveAll or resizeAll passes
// the engine to append its grant list into: one entry per registered domain,
// with room for the testbed's four, so neither the install nor the resize
// allocates one.
type grantList [8]domainGrant

// abortGrants rolls back in reverse acquisition order. Each abort is
// panic-contained (safeAbort): one misbehaving domain must not strand the
// grants behind it.
func abortGrants(grants []domainGrant) {
	for i := len(grants) - 1; i >= 0; i-- {
		safeAbort(grants[i].d, grants[i].g)
	}
}

// reserveAll runs phase one of the install transaction across the chain and
// the concurrent group, appending the grants to gs (the caller's array, see
// grantList). On success the returned grant list is in logical acquisition
// order (chain, then concurrent group in registration order); on failure
// everything already granted has been aborted in reverse order and the first
// failure (chain before concurrent group, both in registration order) is
// returned.
//
// The caller is an in-flight install: it holds the shared side of passMu
// and no shard lock. When the head of the chain — the bottleneck domain the
// overbooking budget governs — cannot fit the request at face value and
// overbooking is on, running slices are first squeezed down to their
// forecast-provisioned sizes and the stage retried, then retried once more
// at the admission estimate (fallbackMbps): "allocated network slices might
// be dynamically re-configured (overbooked) to accommodate new slice
// requests" (Section 3).
func (o *Orchestrator) reserveAll(tx ctrl.Tx, fallbackMbps float64, gs []domainGrant) ([]domainGrant, *slice.RejectionCause) {
	// The concurrent group reserves inline at its dispatch point. It used to
	// run on per-request goroutines overlapping the chain; the group's
	// substrates (cloud compute, MEC pool) are disjoint from the chain's
	// (radio, transport), and the old join always completed before the
	// squeeze and before any failure handling, so "group first, then chain"
	// is one legal schedule of that concurrent program — outcomes are
	// bit-identical — without the goroutine+channel cost on every install.
	type asyncResult struct {
		g     ctrl.Grant
		cause *slice.RejectionCause
	}
	var joinedBuf [4]asyncResult
	joined := joinedBuf[:0]
	for _, d := range o.domains.async {
		// tx goes by value: concurrent-group domains size off the contract
		// while the chain loop below threads effective throughput through
		// its own copy.
		g, cause := safeReserve(d, tx)
		joined = append(joined, asyncResult{g, cause})
	}

	var failure *slice.RejectionCause
	for i, d := range o.domains.chain {
		g, cause := safeReserve(d, tx)
		if cause != nil && i == 0 && o.cfg.effectiveRisk() < 0.9995 {
			o.squeezeAll()
			g, cause = safeReserve(d, tx)
			if cause != nil && fallbackMbps < tx.Mbps {
				// Last resort: install at the admission estimate; the
				// epoch loop will grow it when capacity frees up.
				fb := tx
				fb.Mbps = fallbackMbps
				g, cause = safeReserve(d, fb)
			}
		}
		if cause != nil {
			failure = cause
			break
		}
		gs = append(gs, domainGrant{d: d, g: g})
		if m := g.EffectiveMbps(); m > 0 {
			tx.Mbps = m
		}
	}

	// Fold in the concurrent group in registration order. A chain failure
	// outranks any concurrent-group failure (matching the order of the
	// admission checks); among the group, the first registered wins.
	for i, res := range joined {
		switch {
		case res.cause == nil:
			gs = append(gs, domainGrant{d: o.domains.async[i], g: res.g})
		case failure == nil:
			failure = res.cause
		}
	}
	if failure != nil {
		abortGrants(gs)
		return nil, failure
	}
	return gs, nil
}

// commitGrants runs phase two in acquisition order. A failing commit aborts
// every grant in reverse order (domains must accept Abort after Commit).
func commitGrants(grants []domainGrant) *slice.RejectionCause {
	for _, dg := range grants {
		if err := safeCommit(dg.d, dg.g); err != nil {
			abortGrants(grants)
			return slice.CauseOf(err, slice.RejectOther, dg.d.Domain())
		}
	}
	return nil
}

// releaseAll frees every domain's resources for the slice in reverse
// acquisition order. Domain Release is idempotent, so teardown paths may
// call this regardless of how far installation got.
func (o *Orchestrator) releaseAll(id slice.ID, p slice.PLMN) {
	for i := len(o.domains.all) - 1; i >= 0; i-- {
		o.domains.all[i].Release(id, p)
	}
}

// resizeAll applies a new throughput across every domain in acquisition
// order, threading each grant's effective throughput into the next stage
// exactly like installation does. On any failure the already-resized
// domains are restored to prev in reverse order and false is returned; on
// success the grant list appended to gs (the caller's array, see grantList;
// entries may hold nil grants) records the allocation changes for the
// caller to apply.
func (o *Orchestrator) resizeAll(tx ctrl.Tx, target, prev float64, gs []domainGrant) ([]domainGrant, bool) {
	carried := target
	for i, d := range o.domains.all {
		g, err := d.Resize(tx, carried)
		if err != nil {
			for j := i - 1; j >= 0; j-- {
				o.domains.all[j].Resize(tx, prev) // restoration grants are never applied
			}
			return nil, false
		}
		gs = append(gs, domainGrant{d: d, g: g})
		if g != nil {
			if m := g.EffectiveMbps(); m > 0 {
				carried = m
			}
		}
	}
	return gs, true
}

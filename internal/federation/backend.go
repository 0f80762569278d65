package federation

import (
	"sync"

	"repro/internal/ctrl"
	"repro/internal/slice"
	"repro/internal/traffic"
)

// memberBackend implements ctrl.ClusterBackend over one member's public
// orchestrator facade. It owns the span→member-leg mapping (set at reserve,
// cleared on release).
type memberBackend struct {
	f *Federation
	c *Cluster

	mu        sync.Mutex
	legBySpan map[slice.ID]slice.ID // span ID -> member-local leg slice ID
	spanByLeg map[slice.ID]slice.ID
}

func newMemberBackend(f *Federation, c *Cluster) *memberBackend {
	return &memberBackend{
		f:         f,
		c:         c,
		legBySpan: make(map[slice.ID]slice.ID),
		spanByLeg: make(map[slice.ID]slice.ID),
	}
}

// Utilization implements ctrl.ClusterBackend: the member's ledger load over
// its advertised capacity bar, read straight from the member (no f.mu).
func (b *memberBackend) Utilization() float64 {
	bar := b.c.tb.RadioCapacityMbps() * b.c.orch.Config().UtilizationCap
	if bar <= 0 {
		return 0
	}
	u := b.c.orch.LedgerLoad() / bar
	if u > 1 {
		u = 1
	}
	return u
}

// SpanFeasible implements ctrl.ClusterBackend via the federation-tier dry
// run (Federation.legFeasible).
func (b *memberBackend) SpanFeasible(tx ctrl.Tx) *slice.RejectionCause {
	return b.f.legFeasible(b.c, tx)
}

// SpanReserve implements ctrl.ClusterBackend: submit the leg to the member
// as a normal slice request tagged with the owning span's tenant. The
// member runs its full admission and multi-domain install; a rejection
// comes back with the member's own taxonomy code, re-domained to the
// cluster adapter. The leg's demand process is an RNG-free constant, so
// member outcomes never depend on federation iteration order.
func (b *memberBackend) SpanReserve(tx ctrl.Tx) (ctrl.ClusterLeg, *slice.RejectionCause) {
	dom := b.c.domain.Domain()
	demand := traffic.NewConstant(tx.Mbps*b.f.spanFraction(tx.Slice), 0, nil)
	sl, err := b.c.orch.Submit(slice.Request{Tenant: fedTenant(tx.Slice), SLA: tx.SLA}, demand)
	if err != nil {
		return ctrl.ClusterLeg{}, slice.Rejectf(slice.RejectInternal, dom,
			"cluster %s: %v", b.c.cfg.Name, err)
	}
	if sl.State() == slice.StateRejected {
		if cause, ok := sl.Cause(); ok {
			return ctrl.ClusterLeg{}, slice.Rejectf(cause.Code, dom,
				"cluster %s: %s", b.c.cfg.Name, cause.Detail)
		}
		return ctrl.ClusterLeg{}, slice.Rejectf(slice.RejectOther, dom,
			"cluster %s rejected the leg", b.c.cfg.Name)
	}
	b.mu.Lock()
	b.legBySpan[tx.Slice] = sl.ID()
	b.spanByLeg[sl.ID()] = tx.Slice
	b.mu.Unlock()
	return ctrl.ClusterLeg{Slice: sl.ID(), Mbps: tx.Mbps}, nil
}

// SpanRelease implements ctrl.ClusterBackend. Idempotent: the leg may
// already have expired on the member's own clock.
func (b *memberBackend) SpanRelease(leg ctrl.ClusterLeg) { b.releaseLeg(leg.Slice) }

// SpanReleaseSlice implements ctrl.ClusterBackend: release by owning span ID
// (the engine's Domain.Release verb hands down the span's slice ID).
func (b *memberBackend) SpanReleaseSlice(id slice.ID) {
	b.mu.Lock()
	legID, ok := b.legBySpan[id]
	b.mu.Unlock()
	if ok {
		b.releaseLeg(legID)
	}
}

// releaseLeg deletes the member-local leg slice and clears the mapping.
// Idempotent — a double release or a release after member-side expiry is a
// no-op error the member already tolerates.
func (b *memberBackend) releaseLeg(legID slice.ID) {
	b.mu.Lock()
	if spanID, ok := b.spanByLeg[legID]; ok {
		delete(b.spanByLeg, legID)
		delete(b.legBySpan, spanID)
	}
	b.mu.Unlock()
	_ = b.c.orch.Delete(legID)
}

// forget drops the span's mapping without touching the member — used when
// the span record retires but the member leg lives on its own terms (expiry)
// or is torn down through a grant abort that carries the leg ID directly.
func (b *memberBackend) forget(spanID slice.ID) {
	b.mu.Lock()
	if legID, ok := b.legBySpan[spanID]; ok {
		delete(b.legBySpan, spanID)
		delete(b.spanByLeg, legID)
	}
	b.mu.Unlock()
}

// spanFraction returns the mean-demand fraction recorded for an in-flight
// span submission (default 0.6 of the contract).
func (f *Federation) spanFraction(id slice.ID) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if frac, ok := f.pendingFrac[id]; ok {
		return frac
	}
	return 0.6
}

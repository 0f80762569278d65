package federation

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/sim"
	"repro/internal/slice"
)

// Request is one federated slice request. The federation places it on one
// or more member clusters and installs the resulting span through the
// two-phase engine.
type Request struct {
	// Tenant names the requesting business player.
	Tenant string `json:"tenant"`
	// SLA carries the end-to-end contract. MaxLatencyMs is the budget
	// before the per-cluster federation latency is subtracted.
	SLA slice.SLA `json:"sla"`
	// Cluster optionally pins the whole slice to one named member.
	Cluster string `json:"cluster,omitempty"`
	// MeanDemandMbps is the mean offered load the simulation drives through
	// the span's legs (default 0.6 × ThroughputMbps). Leg demand processes
	// are RNG-free constants, so outcomes never depend on member iteration
	// order.
	MeanDemandMbps float64 `json:"mean_demand_mbps,omitempty"`
}

// Leg is one member-cluster share of an installed span.
type Leg struct {
	// Cluster names the owning member.
	Cluster string `json:"cluster"`
	// Slice is the member-local slice realizing the leg.
	Slice slice.ID `json:"slice"`
	// Mbps is the leg's contracted throughput share; contract is the same
	// share as the federation books carry it.
	Mbps     float64 `json:"mbps"`
	contract slice.Kbps
}

// SpanStatus is the outcome view of one federated submission.
type SpanStatus struct {
	ID         slice.ID         `json:"id"`
	Tenant     string           `json:"tenant"`
	State      string           `json:"state"` // "installed" or "rejected"
	RejectCode slice.RejectCode `json:"reject_code,omitempty"`
	Reason     string           `json:"reason,omitempty"`
	Legs       []Leg            `json:"legs,omitempty"`
	Expires    time.Time        `json:"expires,omitempty"`
}

// span is the federation's bookkeeping for one live span (guarded by f.mu).
type span struct {
	id      slice.ID
	tenant  string
	sla     slice.SLA
	legs    []Leg
	tx      *core.SpanTx
	expires time.Time
	expiry  *sim.Event
}

func (sp *span) status() SpanStatus {
	return SpanStatus{
		ID:      sp.id,
		Tenant:  sp.tenant,
		State:   "installed",
		Legs:    append([]Leg(nil), sp.legs...),
		Expires: sp.expires,
	}
}

// fedTenant tags a member-local leg with its owning span — the ownership
// convention the conservation auditor uses to map member slices back to
// spans, mirroring the core's "<sliceID>/<suffix>" resource naming.
func fedTenant(spanID slice.ID) string { return "fed:" + string(spanID) }

// spanOfTenant recovers the owning span from a leg's tenant tag.
func spanOfTenant(tenant string) (slice.ID, bool) {
	if len(tenant) > 4 && tenant[:4] == "fed:" {
		return slice.ID(tenant[4:]), true
	}
	return "", false
}

// Submit places the request across the member clusters and installs the
// resulting span through the unmodified two-phase engine: every leg is
// reserved in placement order (a member-side rejection aborts the
// already-reserved legs in reverse order) and then committed. Rejection is
// an outcome, not an error — the returned status carries the typed cause.
func (f *Federation) Submit(req Request) (SpanStatus, error) {
	if req.Tenant == "" {
		return SpanStatus{}, fmt.Errorf("federation: request missing tenant")
	}
	if err := req.SLA.Validate(); err != nil {
		return SpanStatus{}, err
	}

	f.mu.Lock()
	f.spanSeq++
	id := slice.ID("f-" + strconv.FormatInt(f.spanSeq, 10))
	plan, cause := f.placeLocked(req, nil)
	if cause != nil {
		f.rejectLocked(cause)
		f.mu.Unlock()
		return SpanStatus{ID: id, Tenant: req.Tenant, State: "rejected",
			RejectCode: cause.Code, Reason: cause.Detail}, nil
	}
	// Reserve the federation books before installing — the hierarchical
	// ledger's phase one, mirroring the core's admission reservation. Any
	// install failure releases exactly what was reserved.
	frac := 0.6
	if req.MeanDemandMbps > 0 && req.SLA.ThroughputMbps > 0 {
		frac = req.MeanDemandMbps / req.SLA.ThroughputMbps
	}
	f.pendingFrac[id] = frac
	for _, lp := range plan {
		lp.cluster.headroom -= lp.contract
		lp.cluster.reserved += lp.contract
	}
	f.mu.Unlock()

	legs := make([]core.SpanLeg, 0, len(plan))
	for _, lp := range plan {
		legs = append(legs, core.SpanLeg{
			Domain: lp.cluster.domain,
			Tx: ctrl.Tx{
				Slice:           id,
				SLA:             legSLA(req.SLA, lp),
				Mbps:            lp.contract.Mbps(),
				LatencyBudgetMs: req.SLA.MaxLatencyMs - lp.cluster.cfg.LatencyMs,
			},
		})
	}
	spanTx, cause := core.InstallSpan(legs)

	f.mu.Lock()
	delete(f.pendingFrac, id)
	if cause != nil {
		for _, lp := range plan {
			lp.cluster.headroom += lp.contract
			lp.cluster.reserved -= lp.contract
		}
		f.rejectLocked(cause)
		f.mu.Unlock()
		return SpanStatus{ID: id, Tenant: req.Tenant, State: "rejected",
			RejectCode: cause.Code, Reason: cause.Detail}, nil
	}
	sp := &span{
		id:      id,
		tenant:  req.Tenant,
		sla:     req.SLA,
		tx:      spanTx,
		expires: f.clock.Now().Add(req.SLA.Duration),
	}
	grants := spanTx.Grants()
	for i, lp := range plan {
		leg := Leg{Cluster: lp.cluster.cfg.Name, Mbps: lp.contract.Mbps(), contract: lp.contract}
		if cg, ok := grants[i].(*ctrl.ClusterGrant); ok {
			leg.Slice = cg.Leg().Slice
		}
		sp.legs = append(sp.legs, leg)
	}
	f.spans[id] = sp
	f.admitted++
	if len(sp.legs) > 1 {
		f.crossCluster++
	}
	// The federation owns the span lifecycle: its expiry tears the member
	// legs down through the span transaction. The members also arm their own
	// leg expiries, but those run from activation — install latency after
	// admission — so they are only a backstop; relying on them would leave
	// each leg alive past the span record for the install-latency window,
	// which the conservation sweep would (rightly) flag as a fed-leak.
	sp.expiry = f.clock.After(req.SLA.Duration, "federation/"+string(id)+"/expiry", func() {
		f.expireSpan(id)
	})
	st := sp.status()
	f.mu.Unlock()
	return st, nil
}

// legSLA derives the member-facing contract for one leg: the throughput
// share, the latency budget left after the cluster's federation latency, and
// price/penalty prorated by the leg's share of the contract (exactly 1 for
// a single-cluster placement).
func legSLA(sla slice.SLA, lp legPlan) slice.SLA {
	leg := sla
	leg.ThroughputMbps = lp.contract.Mbps()
	leg.MaxLatencyMs = sla.MaxLatencyMs - lp.cluster.cfg.LatencyMs
	share := float64(lp.contract) / float64(slice.ToKbps(sla.ThroughputMbps))
	leg.PriceEUR = sla.PriceEUR * share
	leg.PenaltyEUR = sla.PenaltyEUR * share
	return leg
}

// rejectLocked buckets a federation-level rejection. Caller holds f.mu.
func (f *Federation) rejectLocked(cause *slice.RejectionCause) {
	f.rejected++
	if f.rejectReasons == nil {
		f.rejectReasons = make(map[string]int)
	}
	f.rejectReasons[string(cause.Code)]++
}

// expireSpan retires a span whose contract duration elapsed: the books are
// released and the member legs are torn down through the span transaction,
// in reverse acquisition order. A leg whose member-side expiry already fired
// is released idempotently.
func (f *Federation) expireSpan(id slice.ID) {
	f.mu.Lock()
	sp, ok := f.spans[id]
	if ok {
		f.dropSpanLocked(sp)
	}
	f.mu.Unlock()
	if ok {
		sp.tx.Abort()
	}
}

// dropSpanLocked removes the span from the registry, cancels its expiry and
// returns its leg contracts to the federation books. An unreachable member's
// headroom is NOT credited: its leg is orphaned, not released — the member
// still holds it on the far side of the partition — and its books are frozen
// until the heal re-anchors them. The reserved book always drops: it mirrors
// the span registry, and the leg's registration is gone. Caller holds f.mu.
func (f *Federation) dropSpanLocked(sp *span) {
	delete(f.spans, sp.id)
	if sp.expiry != nil {
		sp.expiry.Cancel()
		sp.expiry = nil
	}
	for _, leg := range sp.legs {
		if c, ok := f.byName[leg.Cluster]; ok {
			if c.alive() {
				c.headroom += leg.contract
			}
			c.reserved -= leg.contract
			c.backend.forget(sp.id)
		}
	}
}

// Delete tears a span down ahead of its expiry: the span transaction aborts
// in reverse acquisition order, releasing every member leg.
func (f *Federation) Delete(id slice.ID) error {
	f.mu.Lock()
	sp, ok := f.spans[id]
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("federation: unknown span %s", id)
	}
	f.dropSpanLocked(sp)
	f.mu.Unlock()
	sp.tx.Abort()
	return nil
}

// Get returns the live span by ID.
func (f *Federation) Get(id slice.ID) (SpanStatus, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	sp, ok := f.spans[id]
	if !ok {
		return SpanStatus{}, false
	}
	return sp.status(), true
}

// Spans lists the live spans in submission order.
func (f *Federation) Spans() []SpanStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]SpanStatus, 0, len(f.spans))
	for _, sp := range f.spans {
		out = append(out, sp.status())
	}
	sort.Slice(out, func(i, j int) bool { return spanSeqOf(out[i].ID) < spanSeqOf(out[j].ID) })
	return out
}

func spanSeqOf(id slice.ID) int {
	n := 0
	for i := 2; i < len(id); i++ {
		n = n*10 + int(id[i]-'0')
	}
	return n
}

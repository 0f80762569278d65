package federation

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/traffic"
)

// Request is one federated slice request. The federation places it on one
// or more member clusters and submits one leg to each owning member.
type Request struct {
	// Tenant names the requesting business player.
	Tenant string `json:"tenant"`
	// SLA carries the end-to-end contract. MaxLatencyMs is the budget
	// before the per-cluster federation latency is subtracted.
	SLA slice.SLA `json:"sla"`
	// Cluster optionally pins the whole slice to one named member.
	Cluster string `json:"cluster,omitempty"`
	// MeanDemandMbps is the mean offered load the simulation drives through
	// the span's legs, in [0, slice.MaxThroughputMbps] (0 means the default
	// 0.6 × ThroughputMbps). Leg demand processes are RNG-free constants,
	// so outcomes never depend on member iteration order.
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

// span is the federation's bookkeeping for one live span (guarded by f.mu;
// immutable once placed).
type span struct {
	id      slice.ID
	tenant  string
	sla     slice.SLA
	seq     int64 // f.spanSeq at Submit, the Spans() order
	legs    []Leg
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

// ErrBadMeanDemand is wrapped by Submit and Explain when the request's mean
// demand is not a finite throughput in [0, slice.MaxThroughputMbps]; front
// ends map it to a 400.
var ErrBadMeanDemand = errors.New("federation: bad mean demand")

// validate checks what placement reads: the contract and the mean demand
// that sizes every leg's constant demand process.
func (r Request) validate() error {
	if err := r.SLA.Validate(); err != nil {
		return err
	}
	if m := r.MeanDemandMbps; !(m >= 0 && m <= slice.MaxThroughputMbps) { // NaN fails both
		return fmt.Errorf("%w: %g Mbps outside [0, %g]", ErrBadMeanDemand, m, float64(slice.MaxThroughputMbps))
	}
	return nil
}

// Submit places the request across the member clusters and submits one leg
// to each owning member in plan order. A member-side rejection deletes the
// already-submitted legs in reverse order; the books are written only when
// the span is placed. Rejection is an outcome, not an error — the returned
// status carries the typed cause.
func (f *Federation) Submit(req Request) (SpanStatus, error) {
	if req.Tenant == "" {
		return SpanStatus{}, fmt.Errorf("federation: request missing tenant")
	}
	if err := req.validate(); err != nil {
		return SpanStatus{}, err
	}
	frac := 0.6
	if req.MeanDemandMbps > 0 {
		frac = req.MeanDemandMbps / req.SLA.ThroughputMbps
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	seq := f.spanSeq + 1
	id := slice.ID("f-" + strconv.FormatInt(seq, 10))
	plan, cause := f.placeLocked(req, new(PlacementExplain))
	legs := make([]Leg, 0, len(plan))
	for _, lp := range plan {
		leg := Leg{Cluster: lp.cluster.cfg.Name, Mbps: lp.contract.Mbps(), contract: lp.contract}
		if leg.Slice, cause = lp.cluster.submitLeg(id, legSLA(req.SLA, lp), frac); cause != nil {
			f.teardown(&span{legs: legs}, "")
			break
		}
		legs = append(legs, leg)
	}
	if cause != nil {
		f.apply(spanRejected{code: cause.Code})
		return SpanStatus{ID: id, Tenant: req.Tenant, State: "rejected",
			RejectCode: cause.Code, Reason: cause.Detail}, nil
	}
	// The federation owns the span lifecycle: its expiry deletes the member
	// legs. The members also arm their own leg expiries, but those run from
	// activation — install latency after admission — so they are only a
	// backstop; relying on them would leave each leg alive past the span
	// record for the install-latency window, which the conservation sweep
	// would (rightly) flag as a fed-leak.
	sp := span{
		id:      id,
		seq:     seq,
		tenant:  req.Tenant,
		sla:     req.SLA,
		legs:    legs,
		expires: f.clock.Now().Add(req.SLA.Duration),
		expiry: f.clock.After(req.SLA.Duration, "federation/"+string(id)+"/expiry", func() {
			_ = f.Delete(id)
		}),
	}
	f.apply(spanPlaced{span: sp})
	return sp.status(), nil
}

// submitLeg submits one span leg to the member as a normal slice request
// tagged with the owning span's tenant. The member runs its full admission
// and multi-domain install; a rejection comes back with the member's own
// taxonomy code under the "cluster/<name>" domain. The leg's demand process
// is an RNG-free constant at frac of the leg's contract, so member outcomes
// never depend on federation iteration order.
func (c *Cluster) submitLeg(spanID slice.ID, sla slice.SLA, frac float64) (slice.ID, *slice.RejectionCause) {
	dom := "cluster/" + c.cfg.Name
	sl, err := c.orch.Submit(slice.Request{Tenant: fedTenant(spanID), SLA: sla},
		traffic.NewConstant(sla.ThroughputMbps*frac, 0, nil))
	if err != nil {
		return "", slice.Rejectf(slice.RejectInternal, dom, "cluster %s: %v", c.cfg.Name, err)
	}
	if sl.State() == slice.StateRejected {
		if cause, ok := sl.Cause(); ok {
			return "", slice.Rejectf(cause.Code, dom, "cluster %s: %s", c.cfg.Name, cause.Detail)
		}
		return "", slice.Rejectf(slice.RejectOther, dom, "cluster %s rejected the leg", c.cfg.Name)
	}
	return sl.ID(), nil
}

// deleteLeg deletes the member-local leg slice. Idempotent: the leg may
// already have expired on the member's own clock.
func (c *Cluster) deleteLeg(id slice.ID) { _ = c.orch.Delete(id) }

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

// teardown deletes a span's legs on their reachable members in reverse plan
// order and cancels its expiry: the member side of every rollback. The
// member named cut (being isolated) keeps its leg, which the apply orphans.
func (f *Federation) teardown(sp *span, cut string) {
	if sp.expiry != nil {
		sp.expiry.Cancel()
	}
	for i := len(sp.legs) - 1; i >= 0; i-- {
		if c := f.byName[sp.legs[i].Cluster]; c.alive() && c.cfg.Name != cut {
			c.deleteLeg(sp.legs[i].Slice)
		}
	}
}

// Delete tears a span down ahead of its expiry (the expiry itself ends
// here too), deleting every member leg in reverse plan order.
func (f *Federation) Delete(id slice.ID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	sp, ok := f.spans[id]
	if !ok {
		return fmt.Errorf("federation: unknown span %s", id)
	}
	f.teardown(sp, "")
	f.apply(legsDropped{ids: []slice.ID{id}})
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
	live := f.liveSpansLocked()
	out := make([]SpanStatus, len(live))
	for i, sp := range live {
		out[i] = sp.status()
	}
	return out
}

// liveSpansLocked returns the live spans in submission order.
func (f *Federation) liveSpansLocked() []*span {
	live := make([]*span, 0, len(f.spans))
	for _, sp := range f.spans {
		live = append(live, sp)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].seq < live[j].seq })
	return live
}

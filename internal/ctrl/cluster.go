// The cluster-as-Domain adapter: a whole remote member cluster wrapped as
// one ctrl.Domain, so a cross-cluster slice span is just another multi-
// domain two-phase transaction. Reserve submits the leg to the member's
// facade (the member runs its own full admission and multi-domain install),
// Abort/Release tear the leg down, and Feasible delegates the member's
// admission dry run — so the federation tier inherits reverse-order
// rollback, the typed rejection taxonomy and, because the adapter embeds a
// FaultArm exactly like the four built-in controllers, the chaos
// fault-injection hooks, all without a line of new engine code.
package ctrl

import (
	"sync/atomic"
	"time"

	"repro/internal/monitor"
	"repro/internal/slice"
)

// ClusterLeg is the member-side outcome of one reserved span leg: the
// member-local slice carrying it, the throughput the member actually
// granted, and how long the member needs before the leg serves.
type ClusterLeg struct {
	// Slice is the member-local slice ID backing the leg.
	Slice slice.ID
	// Mbps is the throughput the member granted the leg.
	Mbps float64
	// Delay is the member's installation delay before the leg serves.
	Delay time.Duration
}

// ClusterBackend is the member-cluster surface the adapter delegates to —
// implemented by the federation registry over a member's core.Orchestrator
// facade. Implementations must be safe for concurrent use.
type ClusterBackend interface {
	// SpanFeasible dry-runs leg admission on the member without reserving.
	SpanFeasible(tx Tx) *slice.RejectionCause
	// SpanReserve admits and installs the leg on the member. A member-side
	// rejection comes back as its typed cause.
	SpanReserve(tx Tx) (ClusterLeg, *slice.RejectionCause)
	// SpanRelease tears one reserved leg down. Idempotent.
	SpanRelease(leg ClusterLeg)
	// SpanReleaseSlice tears down whatever the member holds for the span
	// slice ID. Idempotent.
	SpanReleaseSlice(id slice.ID)
	// Utilization is the member's radio utilization [0,1].
	Utilization() float64
}

// ClusterDomain adapts one member cluster to the Domain surface. It embeds a
// FaultArm consulted at the top of each transactional verb, so chaos
// timelines can fail federated reserves and commits through the same
// first-class FaultInjector capability as any built-in controller.
type ClusterDomain struct {
	FaultArm
	name    string
	backend ClusterBackend
}

// NewClusterDomain wraps the member backend as a Domain named
// "cluster/<name>".
func NewClusterDomain(name string, backend ClusterBackend) *ClusterDomain {
	return &ClusterDomain{name: "cluster/" + name, backend: backend}
}

// Domain implements Controller.
func (c *ClusterDomain) Domain() string { return c.name }

// Utilization implements Controller: the member's radio utilization.
func (c *ClusterDomain) Utilization() float64 { return c.backend.Utilization() }

// PushTelemetry implements Controller.
func (c *ClusterDomain) PushTelemetry(store *monitor.Store, now time.Time) {
	store.Record(monitor.DomainMetric(c.name, "utilization"), now, c.backend.Utilization())
}

// ClusterGrant is the adapter's reservation: the member-side leg, plus the
// single-shot abort latch every built-in grant carries (a second Abort after
// the member recycled the leg's resources must be a no-op).
type ClusterGrant struct {
	leg     ClusterLeg
	backend ClusterBackend
	aborted atomic.Bool
}

// Leg returns the member-side leg backing the grant.
func (g *ClusterGrant) Leg() ClusterLeg { return g.leg }

// Domain implements Grant.
func (g *ClusterGrant) Domain() string { return "cluster" }

// EffectiveMbps implements Grant: what the member actually granted.
func (g *ClusterGrant) EffectiveMbps() float64 { return g.leg.Mbps }

// ActivationDelay implements Grant: the member's installation delay.
func (g *ClusterGrant) ActivationDelay() time.Duration { return g.leg.Delay }

// Apply implements Grant. The federation tier keeps its own span records
// (per-leg member slice IDs), so there is nothing to write into a
// member-local allocation.
func (g *ClusterGrant) Apply(a *slice.Allocation) {}

// Feasible implements Domain: the member's admission dry run.
func (c *ClusterDomain) Feasible(tx Tx) *slice.RejectionCause {
	return c.backend.SpanFeasible(tx)
}

// Reserve implements Domain: admit and install the leg on the member. The
// member's own typed rejection flows back unchanged.
func (c *ClusterDomain) Reserve(tx Tx) (Grant, *slice.RejectionCause) {
	if cause := c.reserveFault(c.name); cause != nil {
		return nil, cause
	}
	leg, cause := c.backend.SpanReserve(tx)
	if cause != nil {
		return nil, cause
	}
	return &ClusterGrant{leg: leg, backend: c.backend}, nil
}

// Commit implements Domain. The member installed the leg at Reserve (its own
// two-phase transaction already committed); only an armed fault can fail it.
func (c *ClusterDomain) Commit(g Grant) error { return c.commitFault(c.name) }

// Abort implements Domain: tear the member-side leg down. Single-shot per
// grant and idempotent with Release.
func (c *ClusterDomain) Abort(g Grant) {
	if cg, ok := g.(*ClusterGrant); ok && cg.aborted.CompareAndSwap(false, true) {
		cg.backend.SpanRelease(cg.leg)
	}
}

// Resize implements Domain: member epochs manage their own legs' sizing, so
// a federated resize is a no-op (only an armed fault can fail it).
func (c *ClusterDomain) Resize(tx Tx, mbps float64) (Grant, error) {
	return nil, c.resizeFault(c.name)
}

// Release implements Domain. Idempotent.
func (c *ClusterDomain) Release(id slice.ID, p slice.PLMN) { c.backend.SpanReleaseSlice(id) }

// The generic domain-transaction surface: every domain controller (radio,
// transport, cloud — and any future domain, proven by the MEC compute
// controller below) implements the same transactional verbs, so the
// orchestrator core is one generic multi-domain two-phase engine instead of
// N copies of install/resize/release/restore logic. The shape follows the
// package-orchestration idiom of uniform lifecycle verbs over heterogeneous
// resources: a domain never leaks its substrate types through the engine —
// it returns an opaque Grant that knows how to record itself in the slice's
// allocation and how to be rolled back.
package ctrl

import (
	"errors"
	"strings"
	"time"

	"repro/internal/epc"
	"repro/internal/mec"
	"repro/internal/monitor"
	"repro/internal/ran"
	"repro/internal/slice"
	"repro/internal/transport"
)

// Tx is the per-slice transactional context handed to every domain. It is
// built once per engine operation by the orchestrator and passed by value;
// domains must not retain it (the Binding it points at outlives it, and is
// the one place a domain keeps what it resolved).
type Tx struct {
	// Slice identifies the transaction's slice.
	Slice slice.ID
	// PLMN is the dedicated PLMN the slice broadcasts under.
	PLMN slice.PLMN
	// SLA carries the full contract (domains that size off the contract —
	// e.g. the vEPC template — read it directly).
	SLA slice.SLA
	// DataCenter is the compute placement chosen at admission.
	DataCenter string
	// Mbps is the throughput this stage must size for. The engine threads
	// each chained grant's effective throughput into the next stage, so a
	// downstream domain is never sized larger than what upstream granted.
	Mbps float64
	// LatencyBudgetMs is the end-to-end latency budget available to the
	// domains (SLA.MaxLatencyMs minus fixed shares such as the vEPC
	// user-plane processing).
	LatencyBudgetMs float64
	// Binding is the slice's substrate handles and grants: Reserve writes
	// the handles it resolves and what it granted into it, Resize reads the
	// handles and writes the new grant, so no resize names the slice, and
	// the returned Grant is a view of it. The orchestrator keeps one per
	// slice and passes it in every Tx of that slice; the engine and the
	// Set.Wrap decorators pass it through untouched. It is guarded by the
	// slice's shard lock, which every caller holds, or owned by its
	// install before registration (no other caller can reach it then).
	// Reserve and Resize require it; it is nil only for admission's
	// Feasible dry run.
	Binding *Binding
}

// Grant is one domain's reservation for a slice — the engine's only handle
// on what a domain allocated. Grants are applied to the slice's allocation
// record on commit and handed back to their domain on rollback. Each domain's
// grant is a view of the slice's Binding: it reads what the domain's last
// Reserve or Resize wrote there, so it allocates nothing and owns nothing.
type Grant interface {
	// Domain names the granting domain.
	Domain() string
	// EffectiveMbps is the throughput the grant actually sustains (PRB
	// quantization can round up); the engine threads it into downstream
	// chain stages. <= 0 means "carried throughput unchanged".
	EffectiveMbps() float64
	// ActivationDelay is how long after installation the granted resource
	// needs before serving (vEPC boot); the engine activates the slice
	// after the longest such delay.
	ActivationDelay() time.Duration
	// Apply records the grant in the slice's allocation.
	Apply(a *slice.Allocation)
}

// Domain is the uniform transactional surface of one orchestration domain.
// It embeds the monitoring Controller surface and adds the two-phase
// lifecycle verbs the generic engine drives:
//
//	Reserve(tx) → Grant   allocate; all-or-nothing per call
//	Commit(Grant)         finalize once every domain reserved
//	Abort(Grant)          roll one grant back (reverse-order rollback)
//	Resize(tx, mbps)      adjust a live slice's share
//	Release(id, plmn)     free everything held for the slice; idempotent
//	Feasible(tx)          admission dry run, no reservation
//
// Failures that are business outcomes (capacity, latency, placement) are
// returned as typed *slice.RejectionCause values — each domain classifies
// its own failures under the stable taxonomy; the engine never inspects
// detail strings. Abort must be safe to call after Commit (2PC unwind) and
// Release must be idempotent.
//
// All methods must be safe for concurrent use: the sharded core installs
// independent slices in parallel. Within one request the engine calls a
// slice's domains one at a time, the chain-independent group first.
type Domain interface {
	Controller

	// Feasible reports whether a reservation for tx could plausibly
	// succeed right now, without reserving. A concurrent reservation may
	// still win the race — the engine rolls back on Reserve failure.
	Feasible(tx Tx) *slice.RejectionCause
	// Reserve allocates resources for tx. All-or-nothing per call.
	Reserve(tx Tx) (Grant, *slice.RejectionCause)
	// Commit finalizes a grant once every domain has reserved.
	Commit(g Grant) error
	// Abort rolls a grant back. Must accept grants in any state
	// (reserved or committed) and be idempotent with Release.
	Abort(g Grant)
	// Resize adjusts the slice's reservation to mbps. The returned grant
	// (may be nil) records any allocation changes; on error the engine
	// restores previously resized domains in reverse order.
	Resize(tx Tx, mbps float64) (Grant, error)
	// Release frees everything the domain holds for the slice. Idempotent.
	Release(id slice.ID, p slice.PLMN)
}

// LatencyContributor is an optional Domain capability: a fixed user-plane
// processing latency (in ms) the domain's resources add to every slice's
// data path. The engine sums the contributions of all registered domains
// and subtracts them from the latency budget it hands to every domain, so
// the transport feasibility check accounts for downstream processing it
// cannot see. This is a capability query, never a domain-identity branch.
type LatencyContributor interface {
	ProcessingLatencyMs() float64
}

// FeasVersioner is an optional Domain capability: a monotonic version
// counter covering every substrate state that can change the outcome of
// Feasible, so equal versions guarantee equal Feasible answers for the same
// transaction.
//
// Kept: nothing in the orchestrator reads it (the feasibility memo it keyed
// hit 0 of 162 600 probes and is deleted), but bench/trace.go forwards the
// capability through its decorators and bench/bench_test.go asserts it on
// exactly the transport and MEC domains. ROADMAP item 6(d) deletes the
// interface, both methods and the two counters they read.
type FeasVersioner interface {
	FeasVersion() uint64
}

// FeasVersion implements FeasVersioner from the network's feasibility
// version.
//
// Kept: bench/bench_test.go asserts it (see FeasVersioner).
func (c *TransportController) FeasVersion() uint64 { return c.net.Version() }

// FeasVersion implements FeasVersioner for the MEC pool.
//
// Kept: bench/bench_test.go asserts it (see FeasVersioner).
func (c *MECController) FeasVersion() uint64 { return c.pool.Version() }

// ---------------------------------------------------------------------------
// Radio domain.

// radioGrant is the RAN domain's reservation: a view of the binding's cells,
// their PRBs and the throughput those sustain.
type radioGrant Binding

func (g *radioGrant) Domain() string                 { return "ran" }
func (g *radioGrant) EffectiveMbps() float64         { return g.radioMbps }
func (g *radioGrant) ActivationDelay() time.Duration { return 0 }

// Apply writes the throughput into the allocation and, when the binding's
// PRBs moved since a radio grant last wrote them (or the allocation has no
// PRB map yet), the PRBs per eNB name into the allocation's own map, in
// place: a resize allocates nothing, and one that moved no cell writes no
// map entry.
func (g *radioGrant) Apply(a *slice.Allocation) {
	a.AllocatedMbps = g.radioMbps
	if a.PRBs != nil && !g.prbsMoved {
		return
	}
	if a.PRBs == nil {
		a.PRBs = make(map[string]int, len(g.cells))
	}
	for i, h := range g.cells {
		a.PRBs[h.Cell().Name()] = g.prbs[i]
	}
	g.prbsMoved = false
}

// radioCause classifies a RAN substrate error: a full MOCN broadcast list is
// a PLMN exhaustion, everything else is radio capacity.
func radioCause(err error) *slice.RejectionCause {
	code := slice.RejectRadioCapacity
	if errors.Is(err, ran.ErrPLMNListFull) {
		code = slice.RejectPLMNExhausted
	}
	return slice.Rejectf(code, "ran", "radio: %w", err)
}

// Feasible implements Domain. Radio capacity is governed by the
// orchestrator's overbooking capacity ledger, so the per-request dry run is
// vacuous here; per-eNB PRB and broadcast-list limits surface at Reserve.
func (c *RANController) Feasible(tx Tx) *slice.RejectionCause { return nil }

// Reserve implements Domain.
func (c *RANController) Reserve(tx Tx) (Grant, *slice.RejectionCause) {
	if cause := c.reserveFault("ran"); cause != nil {
		return nil, cause
	}
	if err := c.reserveCells(tx.PLMN, tx.Mbps, tx.Binding); err != nil {
		return nil, radioCause(err)
	}
	return (*radioGrant)(tx.Binding), nil
}

// Commit implements Domain (PRB reservations are live at Reserve; only an
// armed fault can fail it).
func (c *RANController) Commit(g Grant) error { return c.commitFault("ran") }

// Abort implements Domain. It releases the binding's cells through their
// handles, which die with their reservations, so a second Abort frees
// nothing — not even after the PLMN was reserved again for another slice.
func (c *RANController) Abort(g Grant) {
	if rg, ok := g.(*radioGrant); ok {
		for _, h := range rg.cells {
			h.Release()
		}
	}
}

// Resize implements Domain.
func (c *RANController) Resize(tx Tx, mbps float64) (Grant, error) {
	if err := c.resizeFault("ran"); err != nil {
		return nil, err
	}
	if err := c.resizeCells(tx.Binding, mbps); err != nil {
		return nil, err
	}
	return (*radioGrant)(tx.Binding), nil
}

// Release implements Domain.
func (c *RANController) Release(id slice.ID, p slice.PLMN) { c.ReleaseSlice(p) }

// ---------------------------------------------------------------------------
// Transport domain.

// pathGrant is the transport domain's reservation: a view of the binding's
// path handles and their worst delay.
type pathGrant Binding

func (g *pathGrant) Domain() string                 { return "transport" }
func (g *pathGrant) EffectiveMbps() float64         { return 0 }
func (g *pathGrant) ActivationDelay() time.Duration { return 0 }

// Apply hands the allocation a fresh path-ID list.
func (g *pathGrant) Apply(a *slice.Allocation) {
	ids := make([]string, len(g.paths))
	for i, r := range g.paths {
		ids[i] = r.ID
	}
	a.PathIDs = ids
	a.PathLatencyMs = g.worstDelayMs
}

// transportCause classifies a transport substrate error: a missed delay
// budget is a latency rejection, everything else is transport capacity.
func transportCause(err error, format string, args ...any) *slice.RejectionCause {
	code := slice.RejectTransportCapacity
	if errors.Is(err, transport.ErrDelayBudget) {
		code = slice.RejectLatencyUnmeetable
	}
	return slice.Rejectf(code, "transport", format, args...)
}

// Feasible implements Domain: the delay-constrained path dry run of the
// admission check, against the latency budget left for the transport hop.
func (c *TransportController) Feasible(tx Tx) *slice.RejectionCause {
	delay, err := c.FeasibleDelay(tx.DataCenter, tx.Mbps)
	if err != nil {
		return transportCause(err, "transport to %s: %w", tx.DataCenter, err)
	}
	if proc := tx.SLA.MaxLatencyMs - tx.LatencyBudgetMs; delay+proc > tx.SLA.MaxLatencyMs {
		return slice.Rejectf(slice.RejectLatencyUnmeetable, "transport",
			"latency: best path to %s is %.2f ms + %.2f ms EPC > budget %.2f ms",
			tx.DataCenter, delay, proc, tx.SLA.MaxLatencyMs)
	}
	return nil
}

// Reserve implements Domain.
func (c *TransportController) Reserve(tx Tx) (Grant, *slice.RejectionCause) {
	if cause := c.reserveFault("transport"); cause != nil {
		return nil, cause
	}
	if err := c.reservePaths(tx.Slice, tx.DataCenter, tx.Mbps, tx.LatencyBudgetMs, tx.Binding); err != nil {
		return nil, transportCause(err, "transport: %w", err)
	}
	return (*pathGrant)(tx.Binding), nil
}

// Commit implements Domain (flows are installed at Reserve; only an armed
// fault can fail it).
func (c *TransportController) Commit(g Grant) error { return c.commitFault("transport") }

// Abort implements Domain: it releases the binding's slice's paths.
// Idempotent.
func (c *TransportController) Abort(g Grant) {
	if pg, ok := g.(*pathGrant); ok {
		c.ReleasePaths(pg.id)
	}
}

// Resize implements Domain. Path IDs are unchanged by a resize, so no grant
// is returned.
func (c *TransportController) Resize(tx Tx, mbps float64) (Grant, error) {
	if err := c.resizeFault("transport"); err != nil {
		return nil, err
	}
	return nil, c.ResizePaths(tx.Binding, mbps)
}

// Release implements Domain.
func (c *TransportController) Release(id slice.ID, p slice.PLMN) { c.ReleasePaths(id) }

// ---------------------------------------------------------------------------
// Cloud domain.

// cloudGrant is the cloud domain's reservation: a view of the binding's
// deployment.
type cloudGrant Binding

func (g *cloudGrant) Domain() string                 { return "cloud" }
func (g *cloudGrant) EffectiveMbps() float64         { return 0 }
func (g *cloudGrant) ActivationDelay() time.Duration { return g.dep.BootDelay }
func (g *cloudGrant) Apply(a *slice.Allocation) {
	a.DataCenter = g.dep.DataCenter
	a.StackID = g.dep.StackID
	a.EPCID = g.dep.EPCID
}

// Feasible implements Domain: the chosen data center must fit the slice's
// vEPC template at contract size.
func (c *CloudController) Feasible(tx Tx) *slice.RejectionCause {
	if !c.CanFit(tx.DataCenter, tx.SLA.ThroughputMbps) {
		return slice.Rejectf(slice.RejectCloudCapacity, "cloud",
			"cloud compute: %s cannot fit a %.0f-vCPU vEPC", tx.DataCenter, epc.VCPUDemand(tx.SLA.ThroughputMbps))
	}
	return nil
}

// Reserve implements Domain.
func (c *CloudController) Reserve(tx Tx) (Grant, *slice.RejectionCause) {
	if cause := c.reserveFault("cloud"); cause != nil {
		return nil, cause
	}
	dep, err := c.ImposeDeployment(tx.Slice, tx.DataCenter, tx.PLMN, tx.SLA.ThroughputMbps, tx.SLA.Class)
	if err != nil {
		return nil, slice.Rejectf(slice.RejectCloudCapacity, "cloud", "cloud: %w", err)
	}
	tx.Binding.id, tx.Binding.dep = tx.Slice, dep
	return (*cloudGrant)(tx.Binding), nil
}

// Commit implements Domain (the stack and vEPC registration are live at
// Reserve; the boot timer is the engine's job via ActivationDelay; only an
// armed fault can fail it).
func (c *CloudController) Commit(g Grant) error { return c.commitFault("cloud") }

// Abort implements Domain: it releases the binding's slice's deployment.
// Idempotent.
func (c *CloudController) Abort(g Grant) {
	if cg, ok := g.(*cloudGrant); ok {
		c.Release(cg.id, slice.PLMN{})
	}
}

// Resize implements Domain: vEPC stacks are sized to the contract and are
// not resized by the overbooking loop (only an armed fault can fail it).
func (c *CloudController) Resize(tx Tx, mbps float64) (Grant, error) {
	return nil, c.resizeFault("cloud")
}

// Release implements Domain.
func (c *CloudController) Release(id slice.ID, p slice.PLMN) {
	c.mu.Lock()
	dep, ok := c.bySlice[id]
	delete(c.bySlice, id)
	c.mu.Unlock()
	if ok {
		c.Teardown(dep.DataCenter, dep.StackID, dep.EPCID)
	}
}

// ---------------------------------------------------------------------------
// MEC domain — the pluggable fourth domain.

// MECController manages the edge MEC compute pool: one low-latency edge
// application per slice, placed next to the radio site. It exists to prove
// the Domain surface is pluggable: the orchestrator core drives it through
// the generic engine exactly like the three original domains.
type MECController struct {
	FaultArm
	pool *mec.Pool
	tel  telemetry
}

// NewMECController wraps the pool.
func NewMECController(pool *mec.Pool) *MECController { return &MECController{pool: pool} }

// Domain implements Controller.
func (c *MECController) Domain() string { return "mec" }

// appID derives the slice's edge-app identifier.
func appID(id slice.ID) string { return string(id) + "/app" }

// OwnerOf returns the slice that owns a resource ID the controllers build —
// a transport path "<slice>/<enb>-><dc>", a Heat stack "<slice>/vepc", a
// vEPC "<slice>/epc" or an edge app "<slice>/app": the text before the first
// "/", or the whole ID when it has none.
func OwnerOf(resourceID string) slice.ID {
	if i := strings.IndexByte(resourceID, '/'); i >= 0 {
		return slice.ID(resourceID[:i])
	}
	return slice.ID(resourceID)
}

// mecGrant is the MEC domain's reservation: a view of the binding's app.
type mecGrant Binding

func (g *mecGrant) Domain() string                 { return "mec" }
func (g *mecGrant) EffectiveMbps() float64         { return 0 }
func (g *mecGrant) ActivationDelay() time.Duration { return 0 }
func (g *mecGrant) Apply(a *slice.Allocation)      { a.MECAppID = g.app.ID }

// ProcessingLatencyMs implements LatencyContributor: the engine deducts the
// app's processing share from every domain's latency budget.
func (c *MECController) ProcessingLatencyMs() float64 { return c.pool.ProcessingDelayMs() }

// Feasible implements Domain: the pool must fit the slice's app, and the
// budget left after all fixed processing shares must not already be
// exhausted.
func (c *MECController) Feasible(tx Tx) *slice.RejectionCause {
	if tx.LatencyBudgetMs < 0 {
		return slice.Rejectf(slice.RejectLatencyUnmeetable, "mec",
			"mec: app processing %.2f ms exhausts the latency budget %.2f ms",
			c.pool.ProcessingDelayMs(), tx.SLA.MaxLatencyMs)
	}
	if cpu := mec.CPUForMbps(tx.SLA.ThroughputMbps); !c.pool.CanFit(cpu) {
		return slice.Rejectf(slice.RejectMECCapacity, "mec",
			"mec compute: cannot fit a %.1f-CPU edge app", cpu)
	}
	return nil
}

// Reserve implements Domain.
func (c *MECController) Reserve(tx Tx) (Grant, *slice.RejectionCause) {
	if cause := c.reserveFault("mec"); cause != nil {
		return nil, cause
	}
	app, err := c.pool.Place(appID(tx.Slice), tx.Slice, mec.CPUForMbps(tx.SLA.ThroughputMbps))
	if err != nil {
		return nil, slice.Rejectf(slice.RejectMECCapacity, "mec", "mec: %w", err)
	}
	tx.Binding.id, tx.Binding.app = tx.Slice, app
	return (*mecGrant)(tx.Binding), nil
}

// Commit implements Domain (only an armed fault can fail it).
func (c *MECController) Commit(g Grant) error { return c.commitFault("mec") }

// Abort implements Domain: it removes the binding's app. Idempotent.
func (c *MECController) Abort(g Grant) {
	if mg, ok := g.(*mecGrant); ok {
		c.pool.Remove(mg.app.ID)
	}
}

// Resize implements Domain: the app's CPU share follows the slice's
// (possibly overbooked) throughput allocation.
func (c *MECController) Resize(tx Tx, mbps float64) (Grant, error) {
	if err := c.resizeFault("mec"); err != nil {
		return nil, err
	}
	return nil, c.pool.Resize(appID(tx.Slice), mec.CPUForMbps(mbps))
}

// Release implements Domain.
func (c *MECController) Release(id slice.ID, p slice.PLMN) { c.pool.Remove(appID(id)) }

// Utilization implements Controller (CPU utilization of the pool).
func (c *MECController) Utilization() float64 { return c.pool.Utilization() }

// PushTelemetry implements Controller.
func (c *MECController) PushTelemetry(store *monitor.Store, now time.Time) {
	ss := c.tel.in(store, func() []string {
		return []string{monitor.DomainMetric("mec", "utilization"), monitor.DomainMetric("mec", "apps"), monitor.DomainMetric("mec", "used_cpus")}
	})
	cap := c.pool.Capacity()
	ss[0].Add(now, c.pool.Utilization())
	ss[1].Add(now, float64(cap.Apps))
	ss[2].Add(now, cap.UsedCPUs)
}

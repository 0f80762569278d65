package core

import (
	"math"

	"repro/internal/ctrl"
	"repro/internal/ran"
	"repro/internal/slice"
)

// The zero-allocation admission fast path. Under overload the orchestrator
// spends most of its time saying no: every such no through Submit still
// burns a slice ID, publishes two events, registers a rejected slice,
// formats a detail string and appends a WAL record. SubmitFast answers the
// only question an overloaded front end needs — "would Submit certainly
// reject this right now?" — from version-keyed caches and pooled causes,
// without any of that machinery.
//
// Static detail strings replace the formatted ones of the full path (the
// policy and ledger ones live beside their formats in the policyRules).
const fastDetailPRBs = "fast-reject: a cell lacks free PRBs for the contracted throughput"

// cellHeadroom is one cell's admission-relevant state: free schedulable
// PRBs and the per-PRB throughput at the cell's mean CQI.
type cellHeadroom struct {
	freePRBs   int
	perPRBMbps float64
}

// radioHeadroom is an immutable snapshot of the radio substrate's headroom,
// keyed by the sum of the RAN topology version and every cell's version.
// Every counter is monotonic, so the sum strictly increases on any mutation
// and equal sums guarantee an identical substrate.
type radioHeadroom struct {
	ver   uint64
	cells []cellHeadroom
	// capacityMbps is the total mean-CQI radio capacity, summed in sorted
	// cell order — bit-identical to testbed.RadioCapacityMbps, cached here
	// so the admission hot path stops re-sorting and re-summing per request.
	capacityMbps float64
	// admissionCap is capacityMbps times the utilization cap as the ledger
	// compares against it.
	admissionCap slice.Kbps
}

// radioHeadroomNow returns the current headroom snapshot, rebuilding it only
// when some cell changed. The double version read makes the cache exact: a
// mutation racing the rebuild prevents the snapshot from being stored under
// the old version (it is still returned for one-shot use — no staler than
// any admission-time dry run).
func (o *Orchestrator) radioHeadroomNow() *radioHeadroom {
	rc := o.tb.Ctrl.RAN
	cells := rc.Cells()
	ver := rc.Network().Version()
	for _, e := range cells {
		ver += e.Version()
	}
	if hr := o.radioHead.Load(); hr != nil && hr.ver == ver {
		return hr
	}
	hr := &radioHeadroom{ver: ver, cells: make([]cellHeadroom, len(cells))}
	for i, e := range cells {
		per := ran.PRBThroughputMbps(int(math.Round(e.MeanCQI())))
		hr.cells[i] = cellHeadroom{freePRBs: e.FreePRBs(), perPRBMbps: per}
		hr.capacityMbps += float64(e.TotalPRBs()) * per
	}
	hr.admissionCap = slice.ToKbps(hr.capacityMbps * o.cfg.UtilizationCap)
	ver2 := rc.Network().Version()
	for _, e := range cells {
		ver2 += e.Version()
	}
	if ver2 != ver {
		return hr
	}
	o.radioHead.Store(hr)
	return hr
}

// radioCapacityMbps is the cached total mean-CQI radio capacity — the same
// sum (same cell order, same arithmetic) as tb.RadioCapacityMbps().
func (o *Orchestrator) radioCapacityMbps() float64 {
	return o.radioHeadroomNow().capacityMbps
}

// admissionCap is the load the capacity ledger may reach: the cached radio
// capacity times Config.UtilizationCap.
func (o *Orchestrator) admissionCap() slice.Kbps {
	return o.radioHeadroomNow().admissionCap
}

// SubmitFast answers whether Submit would certainly reject the request right
// now, without burning a slice ID, publishing events, registering a rejected
// slice or appending WAL records. A non-nil cause means rejection is certain
// at the instant of the check (concurrent releases can free capacity a
// moment later, exactly as they can race Submit's own admission). A nil
// result means the request may be admissible and must go through Submit for
// the authoritative decision — SubmitFast never admits.
//
// The returned cause is either pooled (hand it back via
// slice.RecycleRejection when done — the steady-state fast path then
// allocates nothing) or a shared memoized feasibility outcome
// (RecycleRejection ignores those, so callers need not distinguish). The
// cause's code matches what Submit would produce; when several rejections
// apply at once the picked one may differ from the sequential path's
// precedence, and details are static strings rather than formatted ones.
func (o *Orchestrator) SubmitFast(req slice.Request) *slice.RejectionCause {
	sla := req.SLA

	if v := o.admissionPolicy(sla); v.rule != nil {
		return v.rule.fastCause()
	}

	// Capacity-ledger headroom: admission's TryReserve admits iff
	// load+new <= cap, and the squeeze never shrinks ledger entries, so an
	// overfull ledger is a certain rejection.
	hr := o.radioHeadroomNow()
	newLoad := o.admissionEstimate(sla)
	if o.ledger.Load()+slice.ToKbps(newLoad) > hr.admissionCap {
		return ruleLedger.fastCause()
	}

	// Per-cell PRB headroom. Only definite under peak provisioning: when
	// overbooking, a failed radio reserve triggers the squeeze-and-retry
	// path, so a full cell is not a final answer there.
	if o.cfg.effectiveRisk() >= 0.9995 && len(hr.cells) > 0 {
		share := sla.ThroughputMbps / float64(len(hr.cells))
		for _, c := range hr.cells {
			need := 1
			if share > 0 {
				if need = int(math.Ceil(share / c.perPRBMbps)); need < 1 {
					need = 1
				}
			}
			if need > c.freePRBs {
				return slice.PooledRejection(slice.RejectRadioCapacity, "ran", fastDetailPRBs)
			}
		}
	}

	// Memoized placement probe: certain rejection requires every candidate
	// data center to have a feasibility failure memoized at the substrate's
	// *current* version (feascache.go). Any unknown or stale entry means
	// "maybe admissible" — fall through to the full path.
	var last *slice.RejectionCause
	for _, dc := range dcCandidates(sla) {
		tx := ctrl.Tx{
			SLA:             sla,
			DataCenter:      dc,
			Mbps:            newLoad,
			LatencyBudgetMs: o.latencyBudget(sla),
		}
		cause, definite := o.feasProbeReject(tx)
		if !definite {
			return nil
		}
		last = cause
	}
	return last
}

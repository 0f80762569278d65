package core

import (
	"repro/internal/slice"
)

// The zero-allocation admission fast path. Under overload the orchestrator
// spends most of its time saying no: every such no through Submit still
// burns a slice ID, publishes two events, registers a rejected slice,
// formats a detail string and appends a WAL record. SubmitFast answers the
// only question an overloaded front end needs — "would Submit certainly
// reject this right now?" — from the policy rules, the capacity ledger and
// the RAN controller's cells, with pooled causes and without any of that
// machinery. It keeps no copy of substrate state: every reading is taken
// from the controller at the instant of the check.
//
// Static detail strings replace the formatted ones of the full path (the
// policy and ledger ones live beside their formats in the policyRules).
const fastDetailPRBs = "fast-reject: a cell lacks free PRBs for the contracted throughput"

// SubmitFast answers whether Submit would certainly reject the request right
// now, without burning a slice ID, publishing events, registering a rejected
// slice or appending WAL records. A non-nil cause means rejection is certain
// at the instant of the check (concurrent releases can free capacity a
// moment later, exactly as they can race Submit's own admission). A nil
// result means the request may be admissible and must go through Submit for
// the authoritative decision — SubmitFast never admits.
//
// The returned cause is pooled: hand it back via slice.RecycleRejection when
// done and the steady-state fast path allocates nothing. The cause's code
// matches what Submit would produce; when several rejections apply at once
// the picked one may differ from the sequential path's precedence, and
// details are static strings rather than formatted ones.
func (o *Orchestrator) SubmitFast(req slice.Request) *slice.RejectionCause {
	sla := req.SLA

	if v := o.admissionPolicy(sla); v.rule != nil {
		return v.rule.fastCause()
	}

	// Capacity-ledger headroom: admission's TryReserve admits iff
	// load+new <= cap, and the squeeze never shrinks ledger entries, so an
	// overfull ledger is a certain rejection.
	if o.ledger.Load()+o.ledgerEstimate(sla) > o.admissionCap() {
		return ruleLedger.fastCause()
	}

	// Per-cell PRB headroom. Only definite under peak provisioning: when
	// overbooking, a failed radio reserve triggers the squeeze-and-retry
	// path, so a full cell is not a final answer there.
	if cells := o.tb.Ctrl.RAN.Cells(); o.cfg.effectiveRisk() >= 0.9995 && len(cells) > 0 {
		share := sla.ThroughputMbps / float64(len(cells))
		for _, e := range cells {
			if max(e.PRBsForThroughput(share), 1) > e.FreePRBs() {
				return slice.PooledRejection(slice.RejectRadioCapacity, "ran", fastDetailPRBs)
			}
		}
	}

	// Placement feasibility is Submit's to decide.
	return nil
}

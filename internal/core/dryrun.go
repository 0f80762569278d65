package core

import (
	"repro/internal/slice"
)

// Server-side dry-run (DESIGN.md §13): the full admission/feasibility chain
// of admit() evaluated against the live capacity ledger and domain
// controllers without reserving anything, burning an ID, or publishing an
// event. The intent plane uses it to answer "would this template admit
// right now?" for a tenant before committing a fleet instantiation.
//
// The dry-run reads the ledger once (Load) and compares — the simplest way
// to ask the headroom question, and one that can never make a concurrent
// admission see capacity a probe was only borrowing — and the per-domain
// feasibility scan reuses feasibleAll, which is a pure dry run by
// construction. TestDryRunIsolation pins the contract: a dry-run burst
// racing live admissions leaves the ledger and the event sequence untouched.

// DryRunReport is the outcome of one mutation-free admission probe.
type DryRunReport struct {
	// Feasible is the headline verdict: the request would have been
	// admitted at the instant of the probe.
	Feasible bool `json:"feasible"`
	// RejectCode/Detail carry the typed rejection the live path would have
	// returned (empty when feasible).
	RejectCode slice.RejectCode `json:"reject_code,omitempty"`
	Detail     string           `json:"detail,omitempty"`
	// DataCenter is the placement the live path would have chosen.
	DataCenter string `json:"data_center,omitempty"`
	// EstimatedLoadMbps is the radio load admission would charge (the
	// overbooking estimate, or the full contract at peak provisioning).
	EstimatedLoadMbps float64 `json:"estimated_load_mbps"`
	// LedgerLoadMbps / CapacityMbps are the live ledger reading and the
	// cap-scaled radio capacity the headroom check ran against.
	LedgerLoadMbps float64 `json:"ledger_load_mbps"`
	CapacityMbps   float64 `json:"capacity_mbps"`
}

// DryRun evaluates the full admission chain for the request — revenue
// policy, penalty-aware pricing, PLMN availability, overbooking-aware radio
// headroom, and the per-domain feasibility scan with placement choice —
// without mutating any state: no ledger reservation, no slice ID, no event.
// The verdict is advisory: it is exact at the instant of the probe, but a
// concurrent admission can consume the headroom before a follow-up Submit.
// Safe for concurrent use from any number of goroutines.
func (o *Orchestrator) DryRun(req slice.Request) (DryRunReport, error) {
	if err := req.Validate(); err != nil {
		return DryRunReport{}, err
	}
	sla := req.SLA
	load, newLoad, capacity := o.ledger.Load(), o.ledgerEstimate(sla), o.admissionCap()
	rep := DryRunReport{
		EstimatedLoadMbps: newLoad.Mbps(),
		CapacityMbps:      capacity.Mbps(),
		LedgerLoadMbps:    load.Mbps(),
	}
	fail := func(c *slice.RejectionCause) (DryRunReport, error) {
		rep.RejectCode = c.Code
		rep.Detail = c.Detail
		return rep, nil
	}

	// The same prelude admit runs, so a dry-run rejection carries the same
	// typed cause the live path would.
	if v := o.admissionPolicy(sla); v.rule != nil {
		return fail(v.rule.cause(v.args))
	}
	// Radio headroom: the same bound TryReserve enforces, evaluated by
	// comparison instead of reservation.
	if load+newLoad > capacity {
		return fail(ledgerCause(load, newLoad, capacity))
	}
	dc, cause := o.chooseDataCenter(sla)
	if cause != nil {
		return fail(cause)
	}
	rep.Feasible = true
	rep.DataCenter = dc
	return rep, nil
}

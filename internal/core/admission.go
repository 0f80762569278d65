package core

import (
	"math"

	"repro/internal/ctrl"
	"repro/internal/slice"
	"repro/internal/testbed"
)

// policyRule is one rejection the admission policy prelude or the ledger
// headroom check can decide — the causes admit, DryRun and SubmitFast must
// type and word identically: the code and domain every caller reports, the
// full path's detail format over the verdict's numbers, and the fast path's
// static detail (SubmitFast exists to allocate nothing, and a rejection
// storm does not need per-request numbers).
type policyRule struct {
	code                 slice.RejectCode
	domain               string
	format, staticDetail string
	nargs                int
}

var (
	ruleDensity = &policyRule{slice.RejectRevenuePolicy, "", "revenue density %.3f EUR/(Mbps·h) below policy %.3f",
		"fast-reject: revenue density below the configured policy floor", 2}
	rulePenalty = &policyRule{slice.RejectRevenuePolicy, "", "revenue: expected penalty %.2f EUR >= price %.2f EUR at risk %.2f",
		"fast-reject: expected SLA penalties at the configured risk reach the price", 3}
	rulePLMN = &policyRule{slice.RejectPLMNExhausted, "", "PLMN broadcast list full",
		"fast-reject: PLMN broadcast list full", 0}
	// ruleLedger: the shared ledger at load cannot take newLoad under
	// capacity. How the ledger is consulted is each caller's own (TryReserve,
	// or read and compare); the numbers are load, newLoad, capacity.
	ruleLedger = &policyRule{slice.RejectRadioCapacity, "ran", "radio capacity: estimated load %.1f+%.1f Mbps exceeds %.1f",
		"fast-reject: estimated radio load exceeds the admission capacity cap", 3}
)

// ledgerCause is ruleLedger's full-path cause over the book values.
func ledgerCause(load, newLoad, capacity slice.Kbps) *slice.RejectionCause {
	return ruleLedger.cause([3]float64{load.Mbps(), newLoad.Mbps(), capacity.Mbps()})
}

// cause is the full path's rejection cause: the format over the numbers.
func (r *policyRule) cause(a [3]float64) *slice.RejectionCause {
	args := []any{a[0], a[1], a[2]}
	return slice.Rejectf(r.code, r.domain, r.format, args[:r.nargs]...)
}

// fastCause is the fast path's pooled static-detail cause.
func (r *policyRule) fastCause() *slice.RejectionCause {
	return slice.PooledRejection(r.code, r.domain, r.staticDetail)
}

// policyVerdict is a policy decision by value: the rule that rejects (nil to
// pass) and the numbers its detail quotes. Nothing in it allocates.
type policyVerdict struct {
	rule *policyRule
	args [3]float64
}

// admissionPolicy is the admission policy prelude — the checks that are pure
// functions of the request, the configuration and the PLMN pool, in the
// order that decides which rejection surfaces first. admit, DryRun and
// SubmitFast all run it, so a policy is added or changed here only.
func (o *Orchestrator) admissionPolicy(sla slice.SLA) policyVerdict {
	// Revenue policy: EUR per Mbps·hour must clear the configured bar.
	if floor := o.cfg.MinRevenueDensity; floor > 0 {
		density := sla.PriceEUR / (sla.ThroughputMbps * sla.Duration.Hours())
		if density < floor {
			return policyVerdict{ruleDensity, [3]float64{density, floor}}
		}
	}
	// Penalty-aware revenue check: when overbooking at risk r, each epoch
	// independently exceeds the provisioned quantile with probability
	// ~(1-r), costing PenaltyEUR. A slice whose expected penalties eat the
	// price is a losing trade and is rejected up front.
	if o.cfg.PenaltyAware {
		if expected := o.expectedPenaltyEUR(sla); expected >= sla.PriceEUR {
			return policyVerdict{rulePenalty, [3]float64{expected, sla.PriceEUR, o.cfg.effectiveRisk()}}
		}
	}
	// PLMN slot (MOCN broadcast list).
	if o.plmns.Available() == 0 {
		return policyVerdict{rule: rulePLMN}
	}
	return policyVerdict{}
}

// admit runs the admission checks of Section 3: "our end-to-end
// orchestration algorithm checks the infrastructure resources availability
// in each domain and performs traffic forecasting, considering past and
// current network slices information". It returns (nil, reserved) to
// admit — with the newcomer's estimated load already reserved on the shared
// capacity ledger (phase one of the two-phase reservation; install commits
// it, any failure must release it) — or a typed rejection cause.
//
// The radio check is the overbooking-aware one: the running sum of
// *estimated* loads (current provisioned allocations of running slices +
// a load-factor estimate for the newcomer) must fit under the capacity cap.
// Without overbooking the estimates are the full contracts, which
// degenerates to classic peak-provisioning admission. The sum is maintained
// incrementally by the ledger, so the check is O(1) and atomic under
// concurrent admissions on other shards. A rejection leaves the ledger as
// it found it.
//
// On admission the chosen data center is returned alongside, so install
// never re-runs the placement scan the admission dry runs already paid for.
func (o *Orchestrator) admit(req slice.Request) (*slice.RejectionCause, slice.Kbps, string) {
	sla := req.SLA
	if v := o.admissionPolicy(sla); v.rule != nil {
		return v.rule.cause(v.args), 0, ""
	}

	// Radio capacity (overbooking-aware estimate): atomic two-phase
	// reservation against the shared ledger.
	newLoad, capacity := o.ledgerEstimate(sla), o.admissionCap()
	ok, load := o.ledger.TryReserve(newLoad, capacity)
	if !ok {
		return ledgerCause(load, newLoad, capacity), 0, ""
	}

	// Per-domain feasibility: at least one data center must pass every
	// registered domain's dry run (latency budget, compute fit, ...).
	dc, cause := o.chooseDataCenter(sla)
	if cause != nil {
		o.ledger.Release(newLoad)
		return cause, 0, ""
	}
	return nil, newLoad, dc
}

// expectedPenaltyEUR estimates the SLA penalties the operator will owe the
// slice over its lifetime when provisioning at the configured risk.
func (o *Orchestrator) expectedPenaltyEUR(sla slice.SLA) float64 {
	risk := o.cfg.effectiveRisk()
	if risk >= 0.9995 {
		return 0 // peak provisioning never violates
	}
	epochs := float64(sla.Duration / o.cfg.Epoch)
	return (1 - risk) * epochs * sla.PenaltyEUR
}

// admissionEstimate is the radio load the newcomer is expected to add.
func (o *Orchestrator) admissionEstimate(sla slice.SLA) float64 {
	if o.cfg.effectiveRisk() >= 0.9995 {
		return sla.ThroughputMbps
	}
	return sla.ThroughputMbps * o.cfg.AdmissionLoadFactor
}

// ledgerEstimate is admissionEstimate as it enters the capacity ledger.
func (o *Orchestrator) ledgerEstimate(sla slice.SLA) slice.Kbps {
	return slice.ToKbps(o.admissionEstimate(sla))
}

// admissionCap is the load the capacity ledger may reach: the radio capacity
// times UtilizationCap.
func (o *Orchestrator) admissionCap() slice.Kbps {
	return slice.ToKbps(o.tb.Ctrl.RAN.CapacityMbps() * UtilizationCap)
}

// chooseDataCenter picks the data center for the slice: the one with
// the fewest spare resources that still passes every registered domain's
// feasibility dry run (keeping the scarce edge free for slices that need
// it), honouring EdgeCompute. It returns the DC name or the last candidate's
// typed rejection cause. It reads only the (internally synchronized) domain
// controllers, so it needs no shard lock.
func (o *Orchestrator) chooseDataCenter(sla slice.SLA) (string, *slice.RejectionCause) {
	names := dcCandidates(sla)
	est := o.admissionEstimate(sla)
	var last *slice.RejectionCause
	for _, dc := range names {
		tx := ctrl.Tx{
			SLA:             sla,
			DataCenter:      dc,
			Mbps:            est,
			LatencyBudgetMs: o.latencyBudget(sla),
		}
		if cause := o.feasibleAll(tx); cause != nil {
			last = cause
			continue
		}
		return dc, nil
	}
	if last == nil {
		last = slice.Rejectf(slice.RejectOther, "", "no data center available")
	}
	return "", last
}

// feasibleAll runs every domain's admission dry run against tx in
// acquisition order and returns the first failing domain's cause.
func (o *Orchestrator) feasibleAll(tx ctrl.Tx) *slice.RejectionCause {
	for _, d := range o.domains.all {
		if cause := d.Feasible(tx); cause != nil {
			return cause
		}
	}
	return nil
}

// Candidate placement lists as package-level arrays: slicing them hands the
// hot path a ready view with no per-request allocation.
var (
	dcCandidatesBoth = [2]string{testbed.CoreDC, testbed.EdgeDC} // prefer core when both fit
	dcCandidatesEdge = [1]string{testbed.EdgeDC}
)

// dcCandidates returns the data centers eligible for the SLA, in preference
// order. The returned slice views a shared array and must not be mutated.
func dcCandidates(sla slice.SLA) []string {
	if sla.EdgeCompute {
		return dcCandidatesEdge[:]
	}
	return dcCandidatesBoth[:]
}

// KnapsackRequest pairs a request with its estimated radio load for the
// offline revenue-maximization solver.
type KnapsackRequest struct {
	Req slice.Request
	// LoadMbps is the radio load charged against capacity (contract for
	// peak provisioning, load-factor estimate when overbooking).
	LoadMbps float64
}

// MaxRevenueSubset solves the admission knapsack exactly: choose the subset
// of requests maximizing total price under a radio capacity budget. It is
// the offline optimum the online policy is compared against in experiment
// D1 (the slice-broker revenue maximization of reference [3]).
//
// Capacity is discretized to 1 Mbps. Returns the chosen indices (ascending)
// and the optimal revenue.
func MaxRevenueSubset(reqs []KnapsackRequest, capacityMbps float64) ([]int, float64) {
	cap := int(math.Floor(capacityMbps))
	if cap <= 0 || len(reqs) == 0 {
		return nil, 0
	}
	weights := make([]int, len(reqs))
	for i, r := range reqs {
		w := int(math.Ceil(r.LoadMbps))
		if w < 1 {
			w = 1
		}
		weights[i] = w
	}
	// dp[c] = best revenue using capacity c; choice bitmap for recovery.
	dp := make([]float64, cap+1)
	take := make([][]bool, len(reqs))
	for i := range take {
		take[i] = make([]bool, cap+1)
	}
	for i, r := range reqs {
		w := weights[i]
		for c := cap; c >= w; c-- {
			if v := dp[c-w] + r.Req.SLA.PriceEUR; v > dp[c] {
				dp[c] = v
				take[i][c] = true
			}
		}
	}
	// Recover the chosen set.
	best := cap
	var chosen []int
	for i := len(reqs) - 1; i >= 0; i-- {
		if take[i][best] {
			chosen = append(chosen, i)
			best -= weights[i]
		}
	}
	// Reverse to ascending.
	for l, r := 0, len(chosen)-1; l < r; l, r = l+1, r-1 {
		chosen[l], chosen[r] = chosen[r], chosen[l]
	}
	return chosen, dp[cap]
}

// GreedyRevenueSubset is the online baseline: scan requests in arrival
// order and admit whatever fits. Returns chosen indices and revenue.
func GreedyRevenueSubset(reqs []KnapsackRequest, capacityMbps float64) ([]int, float64) {
	var chosen []int
	rev := 0.0
	used := 0.0
	for i, r := range reqs {
		if used+r.LoadMbps <= capacityMbps {
			used += r.LoadMbps
			rev += r.Req.SLA.PriceEUR
			chosen = append(chosen, i)
		}
	}
	return chosen, rev
}

// DensityOrderedSubset admits in descending revenue-density order — the
// practical online revenue-maximization heuristic of [3] when a batch of
// requests is pending.
func DensityOrderedSubset(reqs []KnapsackRequest, capacityMbps float64) ([]int, float64) {
	idx := make([]int, len(reqs))
	for i := range idx {
		idx[i] = i
	}
	density := func(i int) float64 {
		if reqs[i].LoadMbps <= 0 {
			return math.Inf(1)
		}
		return reqs[i].Req.SLA.PriceEUR / reqs[i].LoadMbps
	}
	// Stable sort keeps arrival order among equal densities.
	sortStableBy(idx, func(a, b int) bool { return density(a) > density(b) })
	var chosen []int
	rev, used := 0.0, 0.0
	for _, i := range idx {
		if used+reqs[i].LoadMbps <= capacityMbps {
			used += reqs[i].LoadMbps
			rev += reqs[i].Req.SLA.PriceEUR
			chosen = append(chosen, i)
		}
	}
	sortStableBy(chosen, func(a, b int) bool { return a < b })
	return chosen, rev
}

func sortStableBy(xs []int, less func(a, b int) bool) {
	// Insertion sort: the slices here are small (pending request batches).
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && less(xs[j], xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

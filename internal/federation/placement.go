package federation

import (
	"fmt"
	"sort"

	"repro/internal/slice"
)

// legPlan is one placement decision: the owning cluster and the throughput
// share it carries.
type legPlan struct {
	cluster  *Cluster
	contract slice.Kbps
}

// ExplainCandidate is the placement engine's per-member verdict for one
// request: why the member was or wasn't eligible, with the books it was
// judged against.
type ExplainCandidate struct {
	Cluster      string  `json:"cluster"`
	Location     string  `json:"location,omitempty"`
	LatencyMs    float64 `json:"latency_ms"`
	HeadroomMbps float64 `json:"headroom_mbps"`
	Alive        bool    `json:"alive"`
	Eligible     bool    `json:"eligible"`
	Reason       string  `json:"reason,omitempty"`
}

// ExplainLeg is one leg of the chosen placement.
type ExplainLeg struct {
	Cluster string  `json:"cluster"`
	Mbps    float64 `json:"mbps"`
}

// PlacementExplain is the dry-run trace of one placement decision — every
// candidate's verdict plus either the chosen legs or the typed rejection.
type PlacementExplain struct {
	Placed     bool               `json:"placed"`
	RejectCode slice.RejectCode   `json:"reject_code,omitempty"`
	Reason     string             `json:"reason,omitempty"`
	Candidates []ExplainCandidate `json:"candidates"`
	Legs       []ExplainLeg       `json:"legs,omitempty"`
}

// Explain dry-runs placement for the request without reserving anything:
// the same deterministic engine Submit uses, with its per-candidate
// reasoning exposed. A concurrent Submit may still change the books before
// a follow-up Submit, exactly like the engine's Feasible contract.
func (f *Federation) Explain(req Request) (PlacementExplain, error) {
	if err := req.validate(); err != nil {
		return PlacementExplain{}, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var ex PlacementExplain
	f.placeLocked(req, &ex)
	return ex, nil
}

// placeLocked maps the request onto owning clusters against the current
// federation books. Strategy: prefer the single eligible cluster with the
// lowest federation latency that fits the whole contract (ties broken by
// name); otherwise split greedily across eligible clusters by descending
// headroom (ties by name) — a cross-cluster span. Deterministic: members are
// iterated in name order and every tie-break is by name. Caller holds f.mu;
// the full per-candidate trace is recorded in ex.
func (f *Federation) placeLocked(req Request, ex *PlacementExplain) ([]legPlan, *slice.RejectionCause) {
	need := slice.ToKbps(req.SLA.ThroughputMbps)

	reject := func(cause *slice.RejectionCause) ([]legPlan, *slice.RejectionCause) {
		ex.RejectCode, ex.Reason = cause.Code, cause.Detail
		return nil, cause
	}

	if req.Cluster != "" {
		if _, ok := f.byName[req.Cluster]; !ok {
			return reject(slice.Rejectf(slice.RejectClusterUnavailable, "federation",
				"unknown cluster %q", req.Cluster))
		}
	}

	var eligible []*Cluster
	latencyBlocked, unreachable := 0, 0
	for _, c := range f.members {
		cand := ExplainCandidate{
			Cluster:      c.cfg.Name,
			Location:     c.cfg.Location,
			LatencyMs:    c.cfg.LatencyMs,
			HeadroomMbps: c.headroom.Mbps(),
			Alive:        c.alive(),
		}
		switch {
		case req.Cluster != "" && c.cfg.Name != req.Cluster:
			cand.Reason = "not the pinned cluster"
		case !c.alive():
			unreachable++
			cand.Reason = "unreachable (partitioned or failed)"
		case req.SLA.MaxLatencyMs > 0 && c.cfg.LatencyMs >= req.SLA.MaxLatencyMs:
			latencyBlocked++
			cand.Reason = fmt.Sprintf("federation latency %.1f ms leaves no budget out of %.1f ms",
				c.cfg.LatencyMs, req.SLA.MaxLatencyMs)
		default:
			cand.Eligible = true
			eligible = append(eligible, c)
		}
		ex.Candidates = append(ex.Candidates, cand)
	}

	if len(eligible) == 0 {
		switch {
		case latencyBlocked > 0 && unreachable == 0 && req.Cluster == "":
			return reject(slice.Rejectf(slice.RejectLatencyUnmeetable, "federation",
				"no cluster within the %.1f ms latency budget", req.SLA.MaxLatencyMs))
		case req.Cluster != "" && latencyBlocked > 0:
			return reject(slice.Rejectf(slice.RejectLatencyUnmeetable, "federation",
				"pinned cluster %q cannot meet the %.1f ms latency budget", req.Cluster, req.SLA.MaxLatencyMs))
		default:
			return reject(slice.Rejectf(slice.RejectClusterUnavailable, "federation",
				"no reachable cluster for the request"))
		}
	}

	// Single-cluster pass: lowest-latency member that fits the whole
	// contract. eligible is name-sorted, so a strict < keeps the
	// lexicographically first member on latency ties.
	var best *Cluster
	for _, c := range eligible {
		if c.headroom >= need && (best == nil || c.cfg.LatencyMs < best.cfg.LatencyMs) {
			best = c
		}
	}
	if best != nil {
		return ex.placed([]legPlan{{cluster: best, contract: need}}), nil
	}

	// Split pass: a cross-cluster span, greedy by descending headroom so the
	// span touches as few clusters as possible.
	split := append([]*Cluster(nil), eligible...)
	sort.SliceStable(split, func(i, j int) bool {
		if split[i].headroom != split[j].headroom {
			return split[i].headroom > split[j].headroom
		}
		return split[i].cfg.Name < split[j].cfg.Name
	})
	var plan []legPlan
	var remaining, total slice.Kbps = need, 0
	for _, c := range split {
		total += c.headroom
		take := min(c.headroom, remaining)
		if take == 0 {
			continue
		}
		plan = append(plan, legPlan{cluster: c, contract: take})
		if remaining -= take; remaining == 0 {
			break
		}
	}
	if remaining > 0 {
		return reject(slice.Rejectf(slice.RejectRadioCapacity, "federation",
			"%.1f Mbps requested, %.1f Mbps federated headroom across %d eligible clusters",
			need.Mbps(), total.Mbps(), len(eligible)))
	}
	return ex.placed(plan), nil
}

// placed records the chosen legs in the trace and returns the plan.
func (ex *PlacementExplain) placed(plan []legPlan) []legPlan {
	ex.Placed = true
	for _, lp := range plan {
		ex.Legs = append(ex.Legs, ExplainLeg{Cluster: lp.cluster.cfg.Name, Mbps: lp.contract.Mbps()})
	}
	return plan
}

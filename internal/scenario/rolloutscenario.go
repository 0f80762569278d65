package scenario

// The intent-plane chaos scenario C9 (DESIGN.md §13): a fleet instantiated
// from a published template rides through two canary rollouts while the
// standard overloaded workload churns around it. The first rollout tightens
// provisioning mildly and must promote; the second overbooks aggressively
// enough that the canary slices regress their SLA mid-window, and the
// controller must roll the whole canary set back to the prior version
// automatically — with the cross-domain invariant auditor attached
// throughout and the whole run deterministic from the seed, independent of
// the shard count.

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/intent"
	"repro/internal/invariant"
	"repro/internal/testbed"
)

// RolloutChaosResult condenses one C9 run.
type RolloutChaosResult struct {
	// Result is the background-workload summary.
	Result Result `json:"result"`
	// Fleet is the fleet's final record (version reflects the promoted
	// rollout, not the rolled-back one).
	Fleet intent.Fleet `json:"fleet"`
	// Promoted is the benign rollout (must end RolloutPromoted).
	Promoted intent.Rollout `json:"promoted"`
	// RolledBack is the aggressive rollout (must end RolloutRolledBack).
	RolledBack intent.Rollout `json:"rolled_back"`
	// AuditStats and Violations are the invariant auditor's verdict.
	AuditStats invariant.Stats       `json:"audit_stats"`
	Violations []invariant.Violation `json:"violations"`
	// Digest is the canonical end-state image (the shard-equivalence and
	// determinism proofs compare it byte-for-byte).
	Digest []byte `json:"-"`
}

// RolloutChaosTitle is C9's human description.
const RolloutChaosTitle = "canary-rollout: benign rollout promotes, SLA-regressing rollout auto-rolls-back"

// rolloutSpec is C9 as data. Its program, all on the simulated clock:
//
//	t=0    gold v1 (full provisioning), v2 (mild tightening) and v3
//	       (aggressive overbooking, the SLA regression) published
//	t=10m  fleet of 4 tenants x {core, edge} instantiated from gold v1,
//	       constant 24 Mbps offered per member
//	t=30m  rollout to v2 (provision 0.8, cap 32 Mbps > demand): canary 25%,
//	       20m window -> decision at t=50m promotes the fleet
//	t=2h   rollout to v3 (provision 0.25, cap 10 Mbps < demand): canary 50%,
//	       30m window -> canary slices violate every epoch, decision at
//	       t=2h30m rolls every canary back to the v2 cap
var rolloutSpec = chaosSpec{
	title: RolloutChaosTitle,
	opts: Options{
		Duration:         4 * time.Hour,
		MeanInterarrival: 5 * time.Minute,
		Orchestrator: core.Config{
			Overbook:  true,
			Risk:      0.9,
			PLMNLimit: 64,
			Audit:     true,
		},
		Testbed: testbed.Config{MaxPLMNs: 64, RedundantTransport: true, MECHosts: 2, MECHostCPUs: 12},
	},
	prog: []chaos.Op{
		{Name: "publish-gold-v1", Kind: chaos.Publish, Template: gold(1.0)},
		{Name: "publish-gold-v2", Kind: chaos.Publish, Template: gold(0.8)},
		{Name: "publish-gold-v3", Kind: chaos.Publish, Template: gold(0.25)},
		{At: 10 * time.Minute, Name: "instantiate", Kind: chaos.Instantiate,
			Template: intent.Template{Name: "gold", Version: 1},
			Tenants:  []string{"fleet-a", "fleet-b", "fleet-c", "fleet-d"},
			Regions:  []intent.Region{intent.RegionCore, intent.RegionEdge},
			Policy:   core.BatchDensity,
			Mbps:     24},
		{At: 30 * time.Minute, Name: "rollout-benign", Kind: chaos.Rollout,
			Rollout: intent.RolloutConfig{ToVersion: 2, CanaryFraction: 0.25, Window: 20 * time.Minute, MaxViolations: 5}},
		{At: 2 * time.Hour, Name: "rollout-aggressive", Kind: chaos.Rollout,
			Rollout: intent.RolloutConfig{ToVersion: 3, CanaryFraction: 0.5, Window: 30 * time.Minute, MaxViolations: 5}},
	},
}

// gold is C9's template line at one provisioning fraction; its duration
// outlives the run, so the fleet never expires mid-rollout.
func gold(provision float64) intent.Template {
	return intent.Template{
		Name:              "gold",
		ThroughputMbps:    40,
		MaxLatencyMs:      50,
		Duration:          6 * time.Hour,
		PriceEUR:          200,
		PenaltyEUR:        2,
		ProvisionFraction: provision,
	}
}

// RolloutChaosScenario runs C9 with the given seed and shard count (0 =
// default). A program that misfires (no fleet, a rollout that never
// started) shows as fewer than two recorded rollouts.
func RolloutChaosScenario(seed int64, shards int) (RolloutChaosResult, error) {
	opts, prog, err := ChaosProgram("c9", seed, shards)
	if err != nil {
		return RolloutChaosResult{}, err
	}
	r, err := NewRunner(opts)
	if err != nil {
		return RolloutChaosResult{}, err
	}
	env := r.Env()
	run, err := r.RunChaos(env, prog)
	if err != nil {
		return RolloutChaosResult{}, err
	}
	res := RolloutChaosResult{Result: run.Result, AuditStats: run.AuditStats, Violations: run.Violations}
	if fleets := env.Intent.Fleets(); len(fleets) > 0 {
		res.Fleet = fleets[0]
	}
	rollouts := env.Intent.Rollouts()
	if len(rollouts) != 2 {
		return res, fmt.Errorf("scenario: c9: %d rollouts recorded, want 2", len(rollouts))
	}
	res.Promoted, res.RolledBack = rollouts[0], rollouts[1]
	res.Digest = r.Orch.StateDigest()
	return res, nil
}

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

	"repro/internal/core"
	"repro/internal/intent"
	"repro/internal/invariant"
	"repro/internal/testbed"
	"repro/internal/traffic"
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

// RolloutChaosScenario runs C9 with the given seed and shard count (0 =
// default). The timeline, all on the simulated clock:
//
//	t=10m  fleet of 4 tenants x {core, edge} instantiated from gold v1
//	       (full provisioning), constant 24 Mbps offered per member
//	t=30m  rollout to v2 (provision 0.8, cap 32 Mbps > demand): canary 25%,
//	       20m window -> decision at t=50m promotes the fleet
//	t=2h   rollout to v3 (provision 0.25, cap 10 Mbps < demand): canary 50%,
//	       30m window -> canary slices violate every epoch, decision at
//	       t=2h30m rolls every canary back to the v2 cap
func RolloutChaosScenario(seed int64, shards int) (RolloutChaosResult, error) {
	opts := Options{
		Seed:             seed,
		Duration:         4 * time.Hour,
		MeanInterarrival: 5 * time.Minute,
		Orchestrator: core.Config{
			Overbook:  true,
			Risk:      0.9,
			PLMNLimit: 64,
			Audit:     true,
			Shards:    shards,
		},
		Testbed: testbed.Config{MaxPLMNs: 64, RedundantTransport: true, MECHosts: 2, MECHostCPUs: 12},
	}
	r, err := NewRunner(opts)
	if err != nil {
		return RolloutChaosResult{}, err
	}
	mgr := intent.NewManager(r.Orch, r.Sim, intent.Config{
		Quotas: intent.Quotas{MaxSlicesPerTenant: 16, MaxSlicesPerRegion: 64},
	})

	// The template line: gold v1 (full provisioning) -> v2 (mild
	// tightening) -> v3 (aggressive overbooking, the SLA regression).
	base := intent.Template{
		Name:           "gold",
		ThroughputMbps: 40,
		MaxLatencyMs:   50,
		Duration:       6 * time.Hour, // outlives the run: the fleet never expires mid-rollout
		PriceEUR:       200,
		PenaltyEUR:     2,
	}
	now := r.Sim.Now()
	for _, frac := range []float64{1.0, 0.8, 0.25} {
		t := base
		t.ProvisionFraction = frac
		draft, err := mgr.Store().CreateDraft(t, now)
		if err != nil {
			return RolloutChaosResult{}, err
		}
		if _, err := mgr.Store().Publish(draft.Name, draft.Version, now); err != nil {
			return RolloutChaosResult{}, err
		}
	}

	tenants := []string{"fleet-a", "fleet-b", "fleet-c", "fleet-d"}
	regions := []intent.Region{intent.RegionCore, intent.RegionEdge}
	demand := func(string, intent.Region, intent.Template) traffic.Demand {
		return traffic.NewConstant(24, 0, nil) // deterministic offered load
	}

	// The intent timeline runs as sim callbacks, interleaved with the
	// background workload; errors are carried out to the end of the run.
	var (
		fleetID string
		stepErr error
	)
	fail := func(step string, err error) {
		if stepErr == nil {
			stepErr = fmt.Errorf("scenario: c9 %s: %w", step, err)
		}
	}
	r.Sim.After(10*time.Minute, "c9/instantiate", func() {
		f, err := mgr.Instantiate("gold", 1, tenants, regions, core.BatchDensity, demand)
		if err != nil {
			fail("instantiate", err)
			return
		}
		fleetID = f.ID
	})
	r.Sim.After(30*time.Minute, "c9/rollout-benign", func() {
		if fleetID == "" {
			fail("rollout-benign", fmt.Errorf("no fleet"))
			return
		}
		_, err := mgr.StartRollout(intent.RolloutConfig{
			Fleet:          fleetID,
			ToVersion:      2,
			CanaryFraction: 0.25,
			Window:         20 * time.Minute,
			MaxViolations:  5,
		})
		if err != nil {
			fail("rollout-benign", err)
		}
	})
	r.Sim.After(2*time.Hour, "c9/rollout-aggressive", func() {
		if fleetID == "" {
			fail("rollout-aggressive", fmt.Errorf("no fleet"))
			return
		}
		_, err := mgr.StartRollout(intent.RolloutConfig{
			Fleet:          fleetID,
			ToVersion:      3,
			CanaryFraction: 0.5,
			Window:         30 * time.Minute,
			MaxViolations:  5,
		})
		if err != nil {
			fail("rollout-aggressive", err)
		}
	})

	r.StartArrivals()
	if err := r.Sim.RunFor(opts.Duration); err != nil {
		return RolloutChaosResult{}, err
	}
	if stepErr != nil {
		return RolloutChaosResult{}, stepErr
	}

	res := RolloutChaosResult{Result: r.Collect()}
	res.Fleet, _ = mgr.GetFleet(fleetID)
	rollouts := mgr.Rollouts()
	if len(rollouts) != 2 {
		return res, fmt.Errorf("scenario: c9: %d rollouts recorded, want 2", len(rollouts))
	}
	res.Promoted, res.RolledBack = rollouts[0], rollouts[1]
	if a := r.Orch.Auditor(); a != nil {
		res.AuditStats = a.Stats()
		res.Violations = a.Violations()
	}
	res.Digest = r.Orch.StateDigest()
	return res, nil
}

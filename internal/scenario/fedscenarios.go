package scenario

// The federated chaos scenarios C7–C8: multi-cluster failure drills run
// against a federation of full orchestrators, with BOTH audit tiers on —
// every member runs the cross-domain invariant auditor (C1–C6's machinery)
// and the federation runs the conservation sweep over its hierarchical
// ledger at every barrier. C7 is the partition drill: a member cluster
// splits from the federation, spans touching it roll back leak-free, the
// heal reconverges the books. C8 is the fail-over drill: a member dies
// permanently and placement re-homes all new demand onto the survivors.
// They live in their own registry (FedChaosNames) rather than chaosSpecs
// because the single-cluster harnesses — the crash-recovery reference runs
// in particular — assume one orchestrator per scenario; Drive runs both.

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/invariant"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

// FedChaosResult condenses one federated chaos run.
type FedChaosResult struct {
	Name  string `json:"name"`
	Title string `json:"title"`
	// Offered counts the federated requests generated.
	Offered int `json:"offered"`
	// Stats are the federation-tier placement counters.
	Stats federation.Stats `json:"stats"`
	// Gain is the federation-wide aggregated gain report.
	Gain core.GainReport `json:"gain"`
	// ClusterGains are the per-member reports, in name order.
	ClusterGains []federation.ClusterGain `json:"cluster_gains"`
	// Clusters is the final registry view.
	Clusters []federation.ClusterInfo `json:"clusters"`
	// Steps lists the program's ops that fired, in execution order.
	Steps []chaos.FiredStep `json:"steps"`
	// AuditStats merges the federation auditor with every member auditor.
	AuditStats invariant.Stats `json:"audit_stats"`
	// Violations merges every tier's detected breaches (empty == clean).
	Violations []invariant.Violation `json:"violations"`
}

// fedChaosSpec couples a federated scenario's title with its program.
type fedChaosSpec struct {
	title string
	prog  []chaos.Op
}

// The federated chassis C7 and C8 share: three members at distinct
// federation latencies, overbooking and both audit tiers on, requests
// arriving every 5 minutes on average for 4 hours and scaled 2x so single
// members saturate and spans split across clusters.
const (
	fedChaosDuration     = 4 * time.Hour
	fedChaosInterarrival = 5 * time.Minute
	fedChaosRequestScale = 2
)

// fedChaosMembers are the chassis's member clusters, in join order.
func fedChaosMembers() []federation.ClusterConfig {
	member := func(name, location string, latencyMs float64) federation.ClusterConfig {
		return federation.ClusterConfig{
			Name:      name,
			Location:  location,
			LatencyMs: latencyMs,
			Orchestrator: core.Config{
				Overbook:  true,
				Risk:      0.9,
				PLMNLimit: 64,
				Audit:     true,
			},
			Testbed: testbed.Config{MaxPLMNs: 64, RedundantTransport: true},
		}
	}
	return []federation.ClusterConfig{
		member("east", "eu-east", 2),
		member("west", "eu-west", 3),
		member("north", "eu-north", 5),
	}
}

// fedChaosSpecs defines C7–C8.
var fedChaosSpecs = map[string]fedChaosSpec{
	"c7": {
		title: "cluster-partition: a member splits from the federation, spans roll back, the heal reconverges",
		prog: []chaos.Op{
			{At: 45 * time.Minute, Name: "preload-burst", Kind: chaos.BurstSubmit, N: 8},
			{At: 60 * time.Minute, Name: "partition-west", Kind: chaos.PartitionCluster, Target: "west"},
			{At: 70 * time.Minute, Name: "burst-during-partition", Kind: chaos.BurstSubmit, N: 6},
			{At: 100 * time.Minute, Name: "heal-west", Kind: chaos.HealCluster, Target: "west"},
			{At: 110 * time.Minute, Name: "burst-after-heal", Kind: chaos.BurstSubmit, N: 6},
			{At: 150 * time.Minute, Name: "partition-east", Kind: chaos.PartitionCluster, Target: "east"},
			{At: 170 * time.Minute, Name: "heal-east", Kind: chaos.HealCluster, Target: "east"},
			{At: 180 * time.Minute, Name: "final-burst", Kind: chaos.BurstSubmit, N: 6},
		},
	},
	"c8": {
		title: "cluster-fail-over: a member dies permanently and placement re-homes all new demand",
		prog: append([]chaos.Op{
			{At: 45 * time.Minute, Name: "preload-burst", Kind: chaos.BurstSubmit, N: 8},
			{At: 90 * time.Minute, Name: "fail-north", Kind: chaos.FailCluster, Target: "north"},
		}, chaos.Every(100*time.Minute, 25*time.Minute, 5, chaos.Op{Name: "re-home-burst", Kind: chaos.BurstSubmit, N: 5})...),
	},
}

// FedChaosNames lists the canned federated scenarios in order.
func FedChaosNames() []string {
	names := make([]string, 0, len(fedChaosSpecs))
	for n := range fedChaosSpecs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// FedChaosTitle returns the federated scenario's human description.
func FedChaosTitle(name string) string { return fedChaosSpecs[name].title }

// FedChaosScenario runs one canned federated chaos scenario (c7, c8) with
// both audit tiers attached and returns the outcome plus the merged audit
// verdict. Deterministic from the seed, independent of member join order.
func FedChaosScenario(name string, seed int64) (FedChaosResult, error) {
	spec, ok := fedChaosSpecs[name]
	if !ok {
		return FedChaosResult{}, fmt.Errorf("scenario: unknown federated chaos scenario %q (have %v)", name, FedChaosNames())
	}
	s := sim.NewSimulator(seed)
	fed := federation.New(federation.Config{Audit: true}, s)
	for _, cc := range fedChaosMembers() {
		if _, err := fed.Join(cc); err != nil {
			return FedChaosResult{}, err
		}
	}
	gen := traffic.NewRequestGenerator(traffic.DefaultProfiles(), fedChaosInterarrival, s.Rand())
	offered := 0
	submit := func() {
		g := gen.Next(s.Now())
		offered++
		sla := g.Request.SLA
		sla.ThroughputMbps *= fedChaosRequestScale
		sla.PriceEUR *= fedChaosRequestScale
		sla.PenaltyEUR *= fedChaosRequestScale
		_, _ = fed.Submit(federation.Request{Tenant: g.Request.Tenant, SLA: sla})
	}
	startArrivals := func() {
		fed.Start()
		var schedule func()
		schedule = func() {
			s.After(gen.NextInterarrival(), "arrival", func() {
				submit()
				schedule()
			})
		}
		schedule()
	}
	env := &chaos.Env{Sim: s, Fed: fed, Submit: submit}
	if err := Drive(env, seed, spec.prog, startArrivals, fedChaosDuration); err != nil {
		return FedChaosResult{}, err
	}
	res := FedChaosResult{
		Name:         name,
		Title:        spec.title,
		Offered:      offered,
		Stats:        fed.Stats(),
		Gain:         fed.Gain(),
		ClusterGains: fed.ClusterGains(),
		Clusters:     fed.ClusterInfos(),
		Steps:        env.Log(),
	}
	auditors := []*invariant.Auditor{fed.Auditor()}
	for _, name := range fed.Clusters() {
		c, _ := fed.Cluster(name)
		auditors = append(auditors, c.Orchestrator().Auditor())
	}
	for _, a := range auditors {
		if a != nil {
			st := a.Stats()
			res.AuditStats.Sweeps += st.Sweeps
			res.AuditStats.Events += st.Events
			res.AuditStats.Violations += st.Violations
			res.Violations = append(res.Violations, a.Violations()...)
		}
	}
	return res, nil
}

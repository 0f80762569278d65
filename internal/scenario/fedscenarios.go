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

// FedOptions parameterizes one federated simulation run.
type FedOptions struct {
	// Seed drives arrivals and the per-member testbed channels (each member
	// derives its own RNG from Seed and its name inside federation.Join).
	Seed int64
	// Duration is the simulated span (default 4h).
	Duration time.Duration
	// MeanInterarrival is the mean gap between federated requests
	// (default 5m).
	MeanInterarrival time.Duration
	// RequestScale multiplies each generated request's throughput contract
	// (price and penalty scale with it), pushing requests past single-member
	// headroom so cross-cluster spans actually occur (default 1).
	RequestScale float64
	// Clusters are the members to join (required).
	Clusters []federation.ClusterConfig
	// Federation tunes the federation tier (Seed is overridden by Seed).
	Federation federation.Config
	// Profiles are the tenant archetypes (default traffic.DefaultProfiles).
	Profiles []traffic.Profile
}

func (o FedOptions) withDefaults() FedOptions {
	if o.Duration <= 0 {
		o.Duration = 4 * time.Hour
	}
	if o.MeanInterarrival <= 0 {
		o.MeanInterarrival = 5 * time.Minute
	}
	if o.RequestScale <= 0 {
		o.RequestScale = 1
	}
	if o.Profiles == nil {
		o.Profiles = traffic.DefaultProfiles()
	}
	return o
}

// FedRunner couples a simulator, a federation of member clusters and the
// federated request workload.
type FedRunner struct {
	Sim   *sim.Simulator
	Fed   *federation.Federation
	Gen   *traffic.RequestGenerator
	opts  FedOptions
	count int
}

// NewFedRunner builds the federated environment (without starting arrivals).
func NewFedRunner(opts FedOptions) (*FedRunner, error) {
	opts = opts.withDefaults()
	if len(opts.Clusters) == 0 {
		return nil, fmt.Errorf("scenario: federated run needs at least one cluster")
	}
	s := sim.NewSimulator(opts.Seed)
	fcfg := opts.Federation
	fcfg.Seed = opts.Seed
	fed := federation.New(fcfg, s)
	for _, cc := range opts.Clusters {
		if _, err := fed.Join(cc); err != nil {
			return nil, err
		}
	}
	gen := traffic.NewRequestGenerator(opts.Profiles, opts.MeanInterarrival, s.Rand())
	return &FedRunner{Sim: s, Fed: fed, Gen: gen, opts: opts}, nil
}

// SubmitNow injects one generated federated request immediately.
func (r *FedRunner) SubmitNow() (federation.SpanStatus, error) {
	g := r.Gen.Next(r.Sim.Now())
	r.count++
	sla := g.Request.SLA
	sla.ThroughputMbps *= r.opts.RequestScale
	sla.PriceEUR *= r.opts.RequestScale
	sla.PenaltyEUR *= r.opts.RequestScale
	return r.Fed.Submit(federation.Request{Tenant: g.Request.Tenant, SLA: sla})
}

// StartArrivals starts the members, the federation barrier and the Poisson
// request process.
func (r *FedRunner) StartArrivals() {
	r.Fed.Start()
	var schedule func()
	schedule = func() {
		r.Sim.After(r.Gen.NextInterarrival(), "arrival", func() {
			_, _ = r.SubmitNow()
			schedule()
		})
	}
	schedule()
}

// Offered returns the number of federated requests generated so far.
func (r *FedRunner) Offered() int { return r.count }

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

// fedChaosSpec couples a federated scenario's options (Seed is set per
// run) with its program.
type fedChaosSpec struct {
	title string
	opts  FedOptions
	prog  []chaos.Op
}

// fedChaosBaseOptions is the shared chassis: three members at distinct
// federation latencies, overbooking and both audit tiers on, requests scaled
// 2x so single members saturate and spans split across clusters.
func fedChaosBaseOptions(dur, ia time.Duration) FedOptions {
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
	return FedOptions{
		Duration:         dur,
		MeanInterarrival: ia,
		RequestScale:     2,
		Clusters: []federation.ClusterConfig{
			member("east", "eu-east", 2),
			member("west", "eu-west", 3),
			member("north", "eu-north", 5),
		},
		Federation: federation.Config{Audit: true},
	}
}

// fedChaosSpecs defines C7–C8.
var fedChaosSpecs = map[string]fedChaosSpec{
	"c7": {
		title: "cluster-partition: a member splits from the federation, spans roll back, the heal reconverges",
		opts:  fedChaosBaseOptions(4*time.Hour, 5*time.Minute),
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
		opts:  fedChaosBaseOptions(4*time.Hour, 5*time.Minute),
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
	opts := spec.opts
	opts.Seed = seed
	r, err := NewFedRunner(opts)
	if err != nil {
		return FedChaosResult{}, err
	}
	env := &chaos.Env{
		Sim:    r.Sim,
		Fed:    r.Fed,
		Submit: func() { _, _ = r.SubmitNow() },
	}
	if err := Drive(env, seed, spec.prog, r.StartArrivals, r.opts.Duration); err != nil {
		return FedChaosResult{}, err
	}
	res := FedChaosResult{
		Name:         name,
		Title:        spec.title,
		Offered:      r.count,
		Stats:        r.Fed.Stats(),
		Gain:         r.Fed.Gain(),
		ClusterGains: r.Fed.ClusterGains(),
		Clusters:     r.Fed.ClusterInfos(),
		Steps:        env.Log(),
	}
	auditors := []*invariant.Auditor{r.Fed.Auditor()}
	for _, name := range r.Fed.Clusters() {
		c, _ := r.Fed.Cluster(name)
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

// The federation facade: the multi-cluster tier of the public API
// (DESIGN.md §11). A FederationSystem bundles a shared clock with a
// federation of member clusters — each a full orchestrator over its own
// testbed — plus the hierarchical capacity ledger and the latency- and
// capacity-aware placement engine that maps slice requests, or cross-cluster
// spans, onto owning members.
package overbook

import (
	"fmt"

	"repro/internal/federation"
	"repro/internal/sim"
	"repro/internal/slice"
)

// Re-exported federation types, so typical users import only this package.
type (
	// Federation is the multi-cluster orchestration tier.
	Federation = federation.Federation
	// FederationConfig tunes the federation barrier and auditing.
	FederationConfig = federation.Config
	// ClusterConfig describes one member cluster.
	ClusterConfig = federation.ClusterConfig
	// ClusterInfo is the registry view of one member's books.
	ClusterInfo = federation.ClusterInfo
	// SpanRequest is one federated slice request.
	SpanRequest = federation.Request
	// SpanStatus is the outcome view of one federated submission.
	SpanStatus = federation.SpanStatus
	// PlacementExplain is the placement engine's dry-run trace.
	PlacementExplain = federation.PlacementExplain
	// FederationStats counts federation-tier placement outcomes.
	FederationStats = federation.Stats
)

// RejectClusterUnavailable extends the rejection taxonomy for the
// federation tier: no reachable member cluster can own the request.
const RejectClusterUnavailable = slice.RejectClusterUnavailable

// FederationOptions assembles a FederationSystem.
type FederationOptions struct {
	// Clusters are the member clusters to join (at least one).
	Clusters []ClusterConfig
	// Federation tunes the barrier period and the conservation auditor.
	Federation FederationConfig
}

// FederationSystem is an assembled multi-cluster deployment.
type FederationSystem struct {
	// Sim is the virtual clock (nil for live systems).
	Sim *sim.Simulator
	// Clock is the scheduler shared by the federation and every member.
	Clock sim.Scheduler
	// Federation is the multi-cluster tier under control.
	Federation *Federation
}

func assembleFederation(clock sim.Scheduler, opts FederationOptions) (*Federation, error) {
	fed := federation.New(opts.Federation, clock)
	for _, cc := range opts.Clusters {
		if _, err := fed.Join(cc); err != nil {
			return nil, err
		}
	}
	return fed, nil
}

// NewSimulatedFederation builds a deterministic simulated multi-cluster
// deployment: experiments run in virtual time via sys.Sim.RunFor, with
// bit-identical per-cluster outcomes under any cluster declaration order.
// Neither the federation nor its members' testbeds draw randomness, so the
// clock's generator has a fixed seed: sys.Sim.Rand is reproducible for a
// caller that draws demand from it.
func NewSimulatedFederation(opts FederationOptions) (*FederationSystem, error) {
	s := sim.NewSimulator(1)
	fed, err := assembleFederation(s, opts)
	if err != nil {
		return nil, err
	}
	return &FederationSystem{Sim: s, Clock: s, Federation: fed}, nil
}

// NewLiveFederation builds a wall-clock multi-cluster deployment for the
// daemon (cmd/orchestrator -federation): the same federation code runs on
// real timers and demand arrives via the /api/v2/federation/ REST surface.
func NewLiveFederation(opts FederationOptions) (*FederationSystem, error) {
	clock := sim.NewRealtimeClock()
	fed, err := assembleFederation(clock, opts)
	if err != nil {
		return nil, err
	}
	return &FederationSystem{Clock: clock, Federation: fed}, nil
}

// DefaultFederationClusters returns n demo member clusters ("cluster-1" ...)
// at staggered federation latencies, each with the standard overbooking
// config — the chassis cmd/orchestrator -federation and the benchmarks use.
func DefaultFederationClusters(n int) []ClusterConfig {
	out := make([]ClusterConfig, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, ClusterConfig{
			// Two-digit names keep registry sort == numeric order for the
			// fleet sizes the demo uses.
			Name:      fmt.Sprintf("cluster-%02d", i+1),
			Location:  "zone-" + string(rune('a'+i%26)),
			LatencyMs: float64(1 + i),
			Orchestrator: OrchestratorConfig{
				Overbook:  true,
				Risk:      0.9,
				PLMNLimit: 64,
			},
			Testbed: TestbedConfig{MaxPLMNs: 64, RedundantTransport: true},
		})
	}
	return out
}

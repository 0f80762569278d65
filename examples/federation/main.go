// Federation: three member clusters — each a full orchestrator over its own
// testbed — behind one federation tier (DESIGN.md §11). A small slice lands
// on the lowest-latency member that fits it; a big one becomes a
// cross-cluster span, one leg submitted to each member it spans. Then the
// edge cluster partitions away: its spans roll back on the reachable
// members, its legs are orphaned, new demand re-homes elsewhere — and the
// heal reconciles the orphans exactly once.
//
// Run with: go run ./examples/federation
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	overbook "repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the example, writing what it shows to w.
func run(w io.Writer) error {
	sys, err := overbook.NewSimulatedFederation(overbook.FederationOptions{
		Clusters: []overbook.ClusterConfig{
			{Name: "edge-muc", Location: "munich-edge", LatencyMs: 1,
				Orchestrator: overbook.OrchestratorConfig{Overbook: true, Risk: 0.9, PLMNLimit: 64},
				Testbed:      overbook.TestbedConfig{MaxPLMNs: 64, RedundantTransport: true}},
			{Name: "metro-fra", Location: "frankfurt", LatencyMs: 4,
				Orchestrator: overbook.OrchestratorConfig{Overbook: true, Risk: 0.9, PLMNLimit: 64},
				Testbed:      overbook.TestbedConfig{MaxPLMNs: 64, RedundantTransport: true}},
			{Name: "core-ams", Location: "amsterdam", LatencyMs: 9,
				Orchestrator: overbook.OrchestratorConfig{Overbook: true, Risk: 0.9, PLMNLimit: 64},
				Testbed:      overbook.TestbedConfig{MaxPLMNs: 64, RedundantTransport: true}},
		},
		Federation: overbook.FederationConfig{Audit: true},
	})
	if err != nil {
		return err
	}
	fed := sys.Federation
	fed.Start()

	registry := func() {
		for _, ci := range fed.ClusterInfos() {
			state := "alive"
			switch {
			case ci.Failed:
				state = "FAILED"
			case ci.Partitioned:
				state = "partitioned"
			}
			fmt.Fprintf(w, "  %-10s %-13s +%.0fms  %-11s headroom %6.1f / %6.1f Mbps  %d slices\n",
				ci.Name, ci.Location, ci.LatencyMs, state,
				ci.HeadroomMbps, ci.AdvertisedMbps, ci.ActiveSlices)
		}
	}
	fmt.Fprintln(w, "== the registry: three members, one capacity ledger ==")
	registry()

	// A latency-tight slice: only the edge member leaves budget after its
	// federation latency is subtracted.
	fmt.Fprintln(w, "\n== placement dry-run: 20 Mbps under a 4 ms budget ==")
	ex, err := fed.Explain(overbook.SpanRequest{
		SLA: overbook.SLA{ThroughputMbps: 20, MaxLatencyMs: 4,
			Duration: time.Hour, PriceEUR: 80, PenaltyEUR: 2},
	})
	if err != nil {
		return err
	}
	for _, cand := range ex.Candidates {
		verdict := "eligible"
		if !cand.Eligible {
			verdict = cand.Reason
		}
		fmt.Fprintf(w, "  %-10s %s\n", cand.Cluster, verdict)
	}

	submit := func(tenant string, mbps, latency float64) (overbook.SpanStatus, error) {
		st, err := fed.Submit(overbook.SpanRequest{
			Tenant: tenant,
			SLA: overbook.SLA{ThroughputMbps: mbps, MaxLatencyMs: latency,
				Duration: time.Hour, PriceEUR: 4 * mbps, PenaltyEUR: 2},
		})
		if err != nil {
			return st, err
		}
		if st.State == "rejected" {
			fmt.Fprintf(w, "  %s REJECTED [%s]: %s\n", tenant, st.RejectCode, st.Reason)
			return st, nil
		}
		fmt.Fprintf(w, "  %s -> span %s (%d legs)", tenant, st.ID, len(st.Legs))
		for _, leg := range st.Legs {
			fmt.Fprintf(w, "  %s:%.1f Mbps", leg.Cluster, leg.Mbps)
		}
		fmt.Fprintln(w)
		return st, nil
	}

	fmt.Fprintln(w, "\n== small slice lands whole on the edge; a big one spans clusters ==")
	edgeSpan, err := submit("iot-fleet", 20, 4)
	if err != nil {
		return err
	}
	big, err := submit("broadcaster", 180, 50)
	if err != nil {
		return err
	}
	sys.Sim.RunFor(2 * time.Minute) // legs install, barriers audit the books

	fmt.Fprintln(w, "\n== the edge cluster partitions away ==")
	if err := fed.Partition("edge-muc"); err != nil {
		return err
	}
	if _, ok := fed.Get(edgeSpan.ID); !ok {
		fmt.Fprintf(w, "  span %s had its leg on edge-muc: its record is gone and the\n"+
			"  unreachable leg is an orphan until the heal reconciles it\n", edgeSpan.ID)
	}
	if _, ok := fed.Get(big.ID); ok {
		fmt.Fprintf(w, "  span %s touched no edge leg: it keeps running untouched\n", big.ID)
	}
	if _, err := submit("iot-fleet-2", 20, 50); err != nil { // re-homes: the edge is excluded
		return err
	}
	sys.Sim.RunFor(time.Minute)
	registry()

	fmt.Fprintln(w, "\n== heal: orphans reconciled exactly once, books re-anchored ==")
	if err := fed.Heal("edge-muc"); err != nil {
		return err
	}
	sys.Sim.RunFor(2 * time.Minute)
	registry()

	st := fed.Stats()
	fmt.Fprintf(w, "\n%d spans installed (%d cross-cluster), %d rejected, %d live, %d barriers\n",
		st.SpansInstalled, st.SpansCrossCluster, st.SpansRejected, st.SpansLive, st.Barriers)
	if aud := fed.Auditor(); aud != nil {
		fmt.Fprintf(w, "conservation auditor: %d sweeps, %d violations\n",
			aud.Stats().Sweeps, len(aud.Violations()))
	}
	g := fed.Gain()
	fmt.Fprintf(w, "federated gain: %.2fx multiplexing, %d admitted member slices, net %.2f EUR\n",
		g.MultiplexingGain, g.Admitted, g.NetRevenueEUR)
	return nil
}

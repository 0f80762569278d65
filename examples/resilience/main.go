// Resilience: the wireless transport of the testbed degrades and fails —
// rain fade on the mmWave hop, then a full link failure — and the
// orchestrator reacts: re-routing slices over the backup switch when the
// topology allows it, shrinking them to the surviving capacity when it
// doesn't, and tearing down cleanly what cannot be saved.
//
// Run with: go run ./examples/resilience
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	overbook "repro"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the example, writing what it shows to w.
func run(w io.Writer) error {
	cfg := overbook.TestbedConfig{RedundantTransport: true}
	sys, err := overbook.NewSimulated(overbook.Options{Seed: 3, Orchestrator: &overbook.OrchestratorConfig{Overbook: true}, Testbed: cfg})
	if err != nil {
		return err
	}
	orch := sys.Orchestrator
	orch.Start()

	// Three slices, all with paths over the enb-1 mmWave hop.
	var ids []overbook.Snapshot
	for i := 0; i < 3; i++ {
		sl, err := orch.Submit(overbook.Request{
			Tenant: fmt.Sprintf("tenant-%d", i+1),
			SLA: overbook.SLA{
				ThroughputMbps: 20, MaxLatencyMs: 50,
				Duration: 4 * time.Hour, PriceEUR: 80, PenaltyEUR: 2,
			},
		}, traffic.NewConstant(8, 0.5, sys.Sim.Rand()))
		if err != nil {
			return err
		}
		sys.Sim.RunFor(15 * time.Second)
		ids = append(ids, sl.Snapshot())
	}
	fmt.Fprintf(w, "%d slices active; primary paths use the mmWave hop %s->%s\n\n",
		orch.ActiveCount(), testbed.ENBName(0), testbed.Switch)

	show := func() {
		for _, snap := range orch.List() {
			if snap.State == "active" {
				fmt.Fprintf(w, "  %-5s %-10s allocated %5.1f Mbps  path %.2f ms\n",
					snap.ID, snap.Tenant, snap.Allocation.AllocatedMbps, snap.Allocation.PathLatencyMs)
			} else {
				fmt.Fprintf(w, "  %-5s %-10s %s (%s)\n", snap.ID, snap.Tenant, snap.State, snap.Reason)
			}
		}
	}

	fmt.Fprintln(w, "== rain fade: mmWave hop drops from 1000 to 25 Mbps ==")
	rep, err := orch.HandleLinkDegradation(testbed.ENBName(0), testbed.Switch, 25)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "restored %d, dropped %d\n", len(rep.Restored), len(rep.Dropped))
	show()

	sys.Sim.RunFor(10 * time.Minute)

	fmt.Fprintln(w, "\n== hard failure: the degraded hop goes down entirely ==")
	rep, err = orch.HandleLinkFailure(testbed.ENBName(0), testbed.Switch)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "restored %d via backup switch, dropped %d\n", len(rep.Restored), len(rep.Dropped))
	show()

	sys.Sim.RunFor(30 * time.Minute)
	g := orch.Gain()
	fmt.Fprintf(w, "\nafter the incident: %d slices still active, %d violation epochs total, net %.2f EUR\n",
		g.Active, g.ViolationEpochs, g.NetRevenueEUR)
	_ = ids
	return nil
}

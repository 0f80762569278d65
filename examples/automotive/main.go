// Automotive vertical: a latency-critical (URLLC-like) slice whose 8 ms
// end-to-end budget cannot be met from the core cloud, so the orchestrator
// places its vEPC at the mobile edge — the latency-driven placement the
// demo's multi-domain embedding performs. The example then degrades the
// transport network and shows a too-tight request being rejected with the
// reason the dashboard would display.
//
// Run with: go run ./examples/automotive
package main

import (
	"fmt"
	"time"

	overbook "repro"
	"repro/internal/epc"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

func main() {
	sys, err := overbook.NewSimulated(overbook.Options{Seed: 7, Orchestrator: &overbook.OrchestratorConfig{Overbook: true}})
	if err != nil {
		panic(err)
	}
	orch := sys.Orchestrator
	orch.Start()

	// Compare the transport delay to each DC first.
	for _, dc := range []string{testbed.EdgeDC, testbed.CoreDC} {
		d, err := sys.Testbed.Ctrl.Transport.FeasibleDelay(dc, 20)
		if err != nil {
			panic(err)
		}
		fmt.Printf("best eNB->%-4s transport delay: %.2f ms\n", dc, d)
	}

	// The V2X profile: bursty telemetry with event spikes.
	rng := sys.Sim.Rand()
	demand := traffic.NewBursty(4, 18, 0.05, 0.25, 0.5, rng)

	fmt.Println("\nrequesting automotive slice: 20 Mbps, <= 5 ms")
	sl, err := orch.Submit(overbook.Request{
		Tenant: "acme-automotive",
		SLA: overbook.SLA{
			ThroughputMbps: 20,
			MaxLatencyMs:   5, // unmeetable from the core DC (>6 ms away)
			Duration:       2 * time.Hour,
			PriceEUR:       90,
			PenaltyEUR:     4,
			Class:          overbook.ClassAutomotive,
		},
	}, demand)
	if err != nil {
		panic(err)
	}
	sys.Sim.RunFor(15 * time.Second)
	alloc := sl.Allocation()
	fmt.Printf("placed in %q (path %.2f ms within the 5 ms budget)\n", alloc.DataCenter, alloc.PathLatencyMs)

	// Attach a fleet of vehicles to the slice's PLMN.
	for i := 0; i < 5; i++ {
		imsi := fmt.Sprintf("00101000000%04d", i)
		if _, err := sys.Testbed.Ctrl.Cloud.EPCs().Attach(epc.UE{IMSI: imsi, PLMN: alloc.PLMN}, sys.Sim.Now()); err != nil {
			panic(err)
		}
	}
	inst, _ := sys.Testbed.Ctrl.Cloud.EPCs().Get(alloc.EPCID)
	fmt.Printf("%d vehicles attached to PLMN %s via %s\n", inst.Attached(), alloc.PLMN, alloc.EPCID)

	// Run an hour: overbooking shrinks the reservation toward the bursty
	// mean while the scheduler's shared-PRB mode absorbs spikes.
	sys.Sim.RunFor(time.Hour)
	acct := sl.Accounting()
	fmt.Printf("\nafter 1h: allocated %.1f / contracted %.0f Mbps, %d/%d violation epochs, net %.2f EUR\n",
		sl.Allocation().AllocatedMbps, sl.SLA().ThroughputMbps,
		acct.ViolationEpochs, acct.ServedEpochs, acct.NetEUR)

	// An impossible request: 0.5 ms end-to-end cannot be met even at the
	// edge — the dashboard shows the rejection.
	fmt.Println("\nrequesting impossible slice: 20 Mbps, <= 0.5 ms")
	bad, err := orch.Submit(overbook.Request{
		Tenant: "acme-automotive-hard",
		SLA: overbook.SLA{
			ThroughputMbps: 20, MaxLatencyMs: 0.5,
			Duration: time.Hour, PriceEUR: 200, PenaltyEUR: 4,
			Class: overbook.ClassAutomotive,
		},
	}, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("outcome: %s — %s\n", bad.State(), bad.Reason())
}

package overbook_test

import (
	"fmt"
	"time"

	overbook "repro"
)

// ExampleNewSimulated shows the minimal end-to-end path: build the demo
// testbed, submit a slice with the dashboard's five parameters, let the
// installation stages elapse on the virtual clock, and read the
// gains-vs-penalties report.
func ExampleNewSimulated() {
	sys, err := overbook.NewSimulated(overbook.Options{Seed: 1, Orchestrator: &overbook.OrchestratorConfig{Overbook: true}})
	if err != nil {
		panic(err)
	}
	sys.Orchestrator.Start()

	sl, err := sys.Orchestrator.Submit(overbook.Request{
		Tenant: "acme",
		SLA: overbook.SLA{
			ThroughputMbps: 30,        // expected throughput
			MaxLatencyMs:   20,        // maximum latency allowed
			Duration:       time.Hour, // slice time duration
			PriceEUR:       100,       // price willing to be paid
			PenaltyEUR:     2,         // penalty per SLA-violation epoch
		},
	}, nil)
	if err != nil {
		panic(err)
	}

	sys.Sim.RunFor(time.Minute)
	fmt.Println("state:", sl.State())
	fmt.Println("data center:", sl.Allocation().DataCenter)
	fmt.Println("PLMN:", sl.Allocation().PLMN)
	fmt.Printf("admitted: %d\n", sys.Orchestrator.Gain().Admitted)
	// Output:
	// state: active
	// data center: core
	// PLMN: 001-01
	// admitted: 1
}

// Watch: the event-driven counterpart of examples/quickstart. Instead of
// polling List to see what the orchestrator did, subscribe once to the
// ordered slice-lifecycle stream (overbook.Event / Orchestrator.Watch) and
// observe every transition — submission, admission, installation, the
// overbooking resizes, expiry — as it is published, exactly the feed the
// dashboard and `slicectl watch` consume over GET /api/v2/events.
//
// Run with: go run ./examples/watch
package main

import (
	"context"
	"fmt"
	"time"

	overbook "repro"
	"repro/internal/traffic"
)

func main() {
	sys, err := overbook.NewSimulated(overbook.Options{Seed: 7, Orchestrator: &overbook.OrchestratorConfig{Overbook: true}})
	if err != nil {
		panic(err)
	}
	orch := sys.Orchestrator
	orch.Start()

	// Subscribe before submitting: Since 0 tails new events. The buffer
	// absorbs everything a short simulated run publishes; a subscriber
	// that falls behind the replay ring would receive one "resync" marker
	// instead of ever stalling admission.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := orch.Watch(ctx, overbook.WatchOptions{Buffer: 4096})

	submit := func(tenant string, mbps float64, d time.Duration) {
		_, err := orch.Submit(overbook.Request{
			Tenant: tenant,
			SLA: overbook.SLA{
				ThroughputMbps: mbps, MaxLatencyMs: 30, Duration: d,
				PriceEUR: 80, PenaltyEUR: 2,
			},
		}, traffic.NewConstant(mbps*0.6, mbps*0.1, sys.Sim.Rand()))
		if err != nil {
			panic(err)
		}
	}
	submit("video-cdn", 40, 45*time.Minute)
	submit("factory", 25, 30*time.Minute)
	submit("impossible", 500, time.Hour) // rejected: exceeds radio capacity

	// One simulated hour: installs complete, the control loop squeezes the
	// overbooked reservations, the short slices expire.
	sys.Sim.RunFor(time.Hour)

	fmt.Println("== the ordered lifecycle stream ==")
	for {
		select {
		case ev := <-events:
			fmt.Printf("#%-3d %-10s %-4s %-10s %s", ev.Seq, ev.Type, ev.Slice, ev.Tenant, ev.State)
			if ev.Mbps > 0 {
				fmt.Printf(" %.1f Mbps", ev.Mbps)
			}
			if ev.RejectCode != "" {
				fmt.Printf(" [%s]", ev.RejectCode)
			}
			fmt.Println()
		case <-time.After(200 * time.Millisecond):
			// The subscriber goroutine has drained everything published.
			fmt.Printf("\nlast sequence: %d — resume any time with WatchOptions{Since: n}\n",
				orch.Events().LastSeq())
			return
		}
	}
}

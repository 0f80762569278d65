// Quickstart: build the demo testbed, request one network slice through the
// public API, and watch it go through admission, multi-domain installation
// and activation — the minimal end-to-end path of the paper.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	overbook "repro"
	"repro/internal/epc"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the example, writing what it shows to w.
func run(w io.Writer) error {
	sys, err := overbook.NewSimulated(overbook.Options{Seed: 1, Orchestrator: &overbook.OrchestratorConfig{Overbook: true}})
	if err != nil {
		return err
	}
	orch := sys.Orchestrator
	orch.Start()

	fmt.Fprintln(w, "== testbed ==")
	fmt.Fprintf(w, "radio capacity: %.1f Mbps over %d eNBs\n",
		sys.Testbed.RadioCapacityMbps(), len(sys.Testbed.RAN.Names()))
	fmt.Fprintf(w, "data centers:   %v\n", sys.Testbed.Region.Names())

	fmt.Fprintln(w, "\n== requesting a slice (the dashboard form fields) ==")
	sl, err := orch.Submit(overbook.Request{
		Tenant: "quickstart-tenant",
		SLA: overbook.SLA{
			ThroughputMbps: 30,        // expected throughput
			MaxLatencyMs:   20,        // maximum latency allowed
			Duration:       time.Hour, // slice time duration
			PriceEUR:       100,       // price willing to be paid
			PenaltyEUR:     2,         // penalty per SLA-violation epoch
			Class:          overbook.ClassEHealth,
		},
	}, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "submitted: %s state=%s\n", sl.ID(), sl.State())

	// Let the installation stages elapse on the virtual clock.
	sys.Sim.RunFor(15 * time.Second)
	alloc := sl.Allocation()
	fmt.Fprintf(w, "active:    PLMN=%s DC=%s path=%.2fms PRBs=%v\n",
		alloc.PLMN, alloc.DataCenter, alloc.PathLatencyMs, alloc.PRBs)

	tl, _ := orch.Timeline(sl.ID())
	fmt.Fprintln(w, "\n== installation timeline (Fig. 2 workflow) ==")
	fmt.Fprintf(w, "T+%5.2fs radio PRBs reserved, PLMN broadcast\n", tl.RadioDone.Sub(tl.Submitted).Seconds())
	fmt.Fprintf(w, "T+%5.2fs transport paths up, OpenFlow entries installed\n", tl.PathsDone.Sub(tl.Submitted).Seconds())
	fmt.Fprintf(w, "T+%5.2fs Heat stack (vEPC VMs) created\n", tl.StackDone.Sub(tl.Submitted).Seconds())
	fmt.Fprintf(w, "T+%5.2fs OpenEPC booted — slice active\n", tl.Active.Sub(tl.Submitted).Seconds())

	// Attach a UE to the slice's dedicated PLMN.
	ue := epc.UE{IMSI: "001010000000001", PLMN: alloc.PLMN}
	bearer, err := sys.Testbed.Ctrl.Cloud.EPCs().Attach(ue, sys.Sim.Now())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nUE %s attached: EPS bearer EBI=%d QCI=%d\n", ue.IMSI, bearer.EBI, bearer.QCI)

	// Feed some live demand and run half an hour of control epochs.
	orch.RecordDemand(sl.ID(), 14)
	sys.Sim.RunFor(30 * time.Minute)

	g := orch.Gain()
	fmt.Fprintln(w, "\n== gains vs penalties (the dashboard panel) ==")
	fmt.Fprintf(w, "contracted %.0f Mbps, allocated %.1f Mbps -> multiplexing gain %.2fx\n",
		g.ContractedMbps, g.AllocatedMbps, g.MultiplexingGain)
	fmt.Fprintf(w, "revenue %.2f EUR, penalties %.2f EUR, net %.2f EUR\n",
		g.RevenueTotalEUR, g.PenaltyTotalEUR, g.NetRevenueEUR)
	return nil
}

// E-health vertical under a diurnal day: a 24-hour run showing how the
// forecasting engine tracks the day/night demand curve and how the
// overbooking engine resizes the slice's reservation hour by hour —
// the statistical multiplexing the demo's dashboard visualises.
//
// Run with: go run ./examples/ehealth
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	overbook "repro"
	"repro/internal/monitor"
	"repro/internal/traffic"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the example, writing what it shows to w.
func run(w io.Writer) error {
	cfg := overbook.OrchestratorConfig{
		Overbook: true,
		Risk:     0.95,
		Epoch:    5 * time.Minute,
	}
	sys, err := overbook.NewSimulated(overbook.Options{Seed: 11, Orchestrator: &cfg})
	if err != nil {
		return err
	}
	orch := sys.Orchestrator
	orch.Start()

	// Diurnal demand: 15 Mbps mean, peak at 11:00 (clinic hours), noise.
	demand := traffic.NewDiurnal(15, 9, 11, 1.0, sys.Sim.Rand())
	sl, err := orch.Submit(overbook.Request{
		Tenant: "medcare-ehealth",
		SLA: overbook.SLA{
			ThroughputMbps: 30,
			MaxLatencyMs:   20,
			Duration:       24 * time.Hour,
			PriceEUR:       400,
			PenaltyEUR:     6,
			Class:          overbook.ClassEHealth,
		},
	}, demand)
	if err != nil {
		return err
	}
	sys.Sim.RunFor(15 * time.Second)
	fmt.Fprintf(w, "e-health slice %s active in %q\n\n", sl.ID(), sl.Allocation().DataCenter)

	fmt.Fprintln(w, "HOUR   DEMAND   ALLOCATED   CONTRACT   (overbooking tracks the diurnal curve)")
	id := string(sl.ID())
	for h := 0; h < 24; h++ {
		sys.Sim.RunFor(time.Hour)
		store := orch.Store()
		dm := store.Series(monitor.SliceMetric(id, "demand_mbps")).WindowStats(12).Mean
		al := store.Series(monitor.SliceMetric(id, "allocated_mbps")).WindowStats(12).Mean
		bar := ""
		for i := 0; i < int(al); i++ {
			bar += "#"
		}
		fmt.Fprintf(w, "%02d:00  %5.1f    %5.1f       %.0f   %s\n", (h+1)%24, dm, al, sl.SLA().ThroughputMbps, bar)
	}

	acct := sl.Accounting()
	g := orch.Gain()
	fmt.Fprintf(w, "\n24h summary: %d violation epochs of %d served (%.1f%%)\n",
		acct.ViolationEpochs, acct.ServedEpochs, acct.ViolationRate*100)
	fmt.Fprintf(w, "net revenue %.2f EUR; mean multiplexing gain over the day %.2fx\n",
		acct.NetEUR, orch.Store().Series("orchestrator/multiplexing_gain").WindowStats(0).Mean)
	fmt.Fprintf(w, "reconfigurations applied by the control loop: %d\n", g.Reconfigurations)
	return nil
}

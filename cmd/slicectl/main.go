// Command slicectl is the CLI client for the orchestrator's REST API — the
// scriptable counterpart of the demo dashboard.
//
// Usage:
//
//	slicectl [-server http://localhost:8080] <command> [args]
//
// Commands:
//
//	request -tenant NAME -mbps N -latency MS -duration D -price EUR [-penalty EUR] [-class CLASS] [-edge]
//	list
//	get <slice-id>
//	delete <slice-id>
//	demand <slice-id> <mbps>
//	gain
//	topology
//	watch [-since SEQ] [-n COUNT] [-timeout D] [-tenant NAME] [-type EVENT]
//	wal <data-dir>
//
// wal reads a daemon's -data-dir offline (no server involved) and prints the
// checkpoint anchor and one "seq type json" line per log record past it; the
// log's payloads are binary (DESIGN.md §9.1), this is how to look inside.
//
// watch streams the orchestrator's ordered slice-lifecycle events over
// GET /api/v2/events (Server-Sent Events) instead of polling list: it
// prints admissions, rejections, installs, overbooking resizes, SLA
// violations, expiries and link failures as they happen, resuming from the
// last seen sequence number across connection drops.
//
// Against a federated daemon (orchestrator -federation N) the multi-cluster
// commands drive the /api/v2/federation/ surface:
//
//	clusters                          member registry and federation-tier books
//	request -federated [-cluster C]   submit a federated span (prints its legs)
//	explain -mbps N -latency MS       placement dry-run: per-member verdicts
//	spans                             live spans with their legs
//	get|delete f-<n>                  span IDs ("f-" prefix) route to the
//	                                  federation endpoints automatically
//	gain -federated                   aggregate + per-cluster gain reports
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/restapi"
	"repro/internal/slice"
	"repro/internal/wal"
)

func main() {
	server := flag.String("server", "http://localhost:8080", "orchestrator base URL")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	c := restapi.NewClient(*server)
	var err error
	switch args[0] {
	case "request":
		err = cmdRequest(c, args[1:])
	case "list":
		err = cmdList(c)
	case "get":
		err = withID(args[1:], func(id slice.ID) error {
			if isSpanID(id) {
				return cmdGetSpan(c, id)
			}
			return cmdGet(c, id)
		})
	case "delete":
		err = withID(args[1:], func(id slice.ID) error {
			if isSpanID(id) {
				return c.DeleteSpan(id)
			}
			return c.DeleteSlice(id)
		})
	case "demand":
		err = cmdDemand(c, args[1:])
	case "gain":
		err = cmdGain(c, args[1:])
	case "clusters":
		err = cmdClusters(c)
	case "spans":
		err = cmdSpans(c)
	case "explain":
		err = cmdExplain(c, args[1:])
	case "topology":
		err = cmdTopology(c)
	case "watch":
		err = cmdWatch(c, args[1:])
	case "link":
		err = cmdLink(c, args[1:])
	case "template":
		err = cmdTemplate(c, args[1:])
	case "fleet":
		err = cmdFleet(c, args[1:])
	case "rollout":
		err = cmdRollout(c, args[1:])
	case "wal":
		err = cmdWAL(args[1:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "slicectl:", err)
		os.Exit(1)
	}
}

// cmdWAL prints a data directory's durable state: the checkpoint anchor and
// every log record past it, payloads rendered through core.RecordJSON.
func cmdWAL(args []string) error {
	if len(args) != 1 {
		return errors.New("usage: slicectl wal <data-dir>")
	}
	rec, err := wal.Load(args[0])
	if err != nil {
		return err
	}
	fmt.Printf("checkpoint seq=%d bytes=%d\n", rec.SnapshotSeq, len(rec.Snapshot))
	for _, r := range rec.Records {
		js, err := core.RecordJSON(r)
		if err != nil {
			return fmt.Errorf("record %d (%s): %w", r.Seq, r.Type, err)
		}
		fmt.Printf("%d %s %s\n", r.Seq, r.Type, js)
	}
	if rec.TornTail {
		fmt.Printf("torn tail after seq %d\n", rec.LastSeq)
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: slicectl [-server URL] <request|list|get|delete|demand|gain|topology|watch|wal|link|clusters|spans|explain> [args]
  watch [-since SEQ] [-n N] [-timeout D] [-tenant NAME] [-type EVENT]
                                   stream lifecycle events (SSE, auto-resume)
  wal <data-dir>                   print a data dir's checkpoint anchor and log records as JSON (offline)
  link fail <from> <to>            take a transport link down (slices re-route or drop)
  link restore <from> <to>         bring it back up
  link degrade <from> <to> <mbps>  rain-fade the link to the given capacity
federated daemon (orchestrator -federation N):
  clusters                         member registry and federation-tier books
  request -federated [-cluster C]  submit a federated span (prints its legs)
  explain -mbps N -latency MS      placement dry-run: per-member verdicts
  spans                            live spans with their legs
  get|delete f-<n>                 span IDs route to the federation endpoints
  gain -federated                  aggregate + per-cluster gain reports
intent plane (templates / fleets / rollouts):
  template create -name N -mbps M -latency L -duration D -price P [-provision F]
  template publish NAME:VERSION    run guardrails, promote draft to published
  template dryrun NAME:VERSION     server-side feasibility check, nothing reserved
  template list|get NAME:VERSION
  fleet create -template NAME:VERSION -tenants a,b -regions core,edge [-policy P]
  fleet list|get <fleet-id>
  rollout start -fleet F -to V [-canary 0.25] [-window 5m] [-max-violations 0]
  rollout list|get <rollout-id>`)
}

func cmdWatch(c *restapi.Client, args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	var (
		since   = fs.Int64("since", 0, "resume after this event sequence (0 = live tail, -1 = replay retained history)")
		count   = fs.Int("n", 0, "exit after printing N events (0 = stream forever)")
		timeout = fs.Duration("timeout", 0, "exit after this long (0 = stream forever)")
		tenant  = fs.String("tenant", "", "only this tenant's events")
		typ     = fs.String("type", "", "only this event type (e.g. admitted, violation, deleted)")
	)
	fs.Parse(args)
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	p := restapi.WatchParams{Since: *since}
	if *tenant != "" {
		p.Tenants = []string{*tenant}
	}
	if *typ != "" {
		p.Types = []core.EventType{core.EventType(*typ)}
	}
	n := 0
	err := c.WatchEvents(ctx, p, func(ev core.Event) error {
		printEvent(ev)
		n++
		if *count > 0 && n >= *count {
			return restapi.ErrStopWatch
		}
		return nil
	})
	if *timeout > 0 && errors.Is(err, context.DeadlineExceeded) {
		return nil // ran out the requested window: a clean exit
	}
	return err
}

func printEvent(ev core.Event) {
	line := fmt.Sprintf("%s  #%-6d %-13s", ev.Time.Format(time.RFC3339), ev.Seq, ev.Type)
	if ev.Slice != "" {
		line += fmt.Sprintf(" %-6s tenant=%s state=%s", ev.Slice, ev.Tenant, ev.State)
		if ev.Mbps > 0 {
			line += fmt.Sprintf(" alloc=%.1fMbps", ev.Mbps)
		}
		if ev.RejectCode != "" {
			line += fmt.Sprintf(" [%s]", ev.RejectCode)
		}
	}
	if ev.Link != "" {
		line += " link=" + ev.Link
	}
	if ev.Detail != "" {
		line += "  " + ev.Detail
	}
	fmt.Println(line)
}

func cmdLink(c *restapi.Client, args []string) error {
	if len(args) < 3 {
		return fmt.Errorf("usage: link <fail|restore|degrade> <from> <to> [mbps]")
	}
	op, from, to := args[0], args[1], args[2]
	switch op {
	case "fail":
		rep, err := c.FailLink(from, to)
		if err != nil {
			return err
		}
		fmt.Printf("link %s failed: restored %v, dropped %v\n", rep.Link, rep.Restored, rep.Dropped)
		return nil
	case "restore":
		if err := c.RestoreLink(from, to); err != nil {
			return err
		}
		fmt.Printf("link %s->%s restored\n", from, to)
		return nil
	case "degrade":
		if len(args) < 4 {
			return fmt.Errorf("usage: link degrade <from> <to> <mbps>")
		}
		var mbps float64
		if _, err := fmt.Sscanf(args[3], "%f", &mbps); err != nil {
			return fmt.Errorf("bad capacity %q", args[3])
		}
		rep, err := c.DegradeLink(from, to, mbps)
		if err != nil {
			return err
		}
		fmt.Printf("link %s degraded to %.0f Mbps: restored %v, dropped %v\n", rep.Link, mbps, rep.Restored, rep.Dropped)
		return nil
	default:
		return fmt.Errorf("unknown link op %q", op)
	}
}

func withID(args []string, fn func(slice.ID) error) error {
	if len(args) < 1 {
		return fmt.Errorf("slice ID required")
	}
	return fn(slice.ID(args[0]))
}

func cmdRequest(c *restapi.Client, args []string) error {
	fs := flag.NewFlagSet("request", flag.ExitOnError)
	var (
		tenant    = fs.String("tenant", "", "tenant name")
		mbps      = fs.Float64("mbps", 20, "expected throughput (Mbps)")
		latency   = fs.Float64("latency", 50, "maximum latency (ms)")
		duration  = fs.Duration("duration", time.Hour, "slice duration")
		price     = fs.Float64("price", 100, "price willing to pay (EUR)")
		penalty   = fs.Float64("penalty", 2, "penalty per SLA-violation epoch (EUR)")
		class     = fs.String("class", "eMBB", "service class: eMBB|automotive|e-health|mMTC")
		edge      = fs.Bool("edge", false, "require mobile-edge compute")
		federated = fs.Bool("federated", false, "submit to the federation tier (orchestrator -federation)")
		cluster   = fs.String("cluster", "", "pin the federated span to this member cluster (implies -federated)")
		demand    = fs.Float64("demand", 0, "federated mean offered demand in Mbps (default 0.6 x -mbps)")
		idemKey   = fs.String("idempotency-key", "", "Idempotency-Key header for the federated submit")
	)
	fs.Parse(args)
	body := restapi.SliceRequestBody{
		Tenant:          *tenant,
		ThroughputMbps:  *mbps,
		MaxLatencyMs:    *latency,
		DurationSeconds: duration.Seconds(),
		PriceEUR:        *price,
		PenaltyEUR:      *penalty,
		Class:           *class,
		EdgeCompute:     *edge,
	}
	if *federated || *cluster != "" {
		st, err := c.SubmitSpan(restapi.FedSliceRequestBody{
			SliceRequestBody: body,
			Cluster:          *cluster,
			MeanDemandMbps:   *demand,
		}, *idemKey)
		if err != nil {
			return err
		}
		printSpan(st)
		return nil
	}
	snap, err := c.SubmitSlice(body, "")
	if err != nil {
		return err
	}
	if snap.State == "rejected" {
		fmt.Printf("REJECTED %s [%s]: %s\n", snap.ID, snap.RejectCode, snap.Reason)
		return nil
	}
	fmt.Printf("accepted %s: state=%s plmn=%s dc=%s\n",
		snap.ID, snap.State, snap.Allocation.PLMN, snap.Allocation.DataCenter)
	return nil
}

// isSpanID reports whether the ID names a federated span ("f-<seq>") rather
// than a member-local slice ("s-<seq>"), so get/delete can route to the
// right API surface without a flag.
func isSpanID(id slice.ID) bool { return strings.HasPrefix(string(id), "f-") }

func printSpan(st federation.SpanStatus) {
	if st.State == "rejected" {
		fmt.Printf("REJECTED %s [%s]: %s\n", st.ID, st.RejectCode, st.Reason)
		return
	}
	fmt.Printf("accepted span %s: state=%s legs=%d expires=%s\n",
		st.ID, st.State, len(st.Legs), st.Expires.Format(time.RFC3339))
	for _, leg := range st.Legs {
		fmt.Printf("  leg %-12s %8.1f Mbps  slice=%s\n", leg.Cluster, leg.Mbps, leg.Slice)
	}
}

func cmdGetSpan(c *restapi.Client, id slice.ID) error {
	st, err := c.GetSpan(id)
	if err != nil {
		return err
	}
	printSpan(st)
	return nil
}

func cmdClusters(c *restapi.Client) error {
	infos, err := c.FedClusters()
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "CLUSTER\tLOCATION\tLATENCY\tSTATE\tADVERTISED\tHEADROOM\tRESERVED\tLEDGER\tEPOCH\tSLICES")
	for _, ci := range infos {
		state := "alive"
		switch {
		case ci.Failed:
			state = "FAILED"
		case ci.Partitioned:
			state = "partitioned"
		}
		fmt.Fprintf(w, "%s\t%s\t%.1fms\t%s\t%.1f\t%.1f\t%.1f\t%.1f\t%d\t%d\n",
			ci.Name, ci.Location, ci.LatencyMs, state,
			ci.AdvertisedMbps, ci.HeadroomMbps, ci.ReservedMbps, ci.LedgerMbps,
			ci.Epoch, ci.ActiveSlices)
	}
	return w.Flush()
}

func cmdSpans(c *restapi.Client) error {
	spans, err := c.ListSpans()
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "SPAN\tTENANT\tSTATE\tLEGS\tPLACEMENT\tEXPIRES")
	for _, st := range spans {
		placement := make([]string, 0, len(st.Legs))
		for _, leg := range st.Legs {
			placement = append(placement, fmt.Sprintf("%s:%.1f", leg.Cluster, leg.Mbps))
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%s\t%s\n",
			st.ID, st.Tenant, st.State, len(st.Legs),
			strings.Join(placement, " "), st.Expires.Format(time.RFC3339))
	}
	return w.Flush()
}

func cmdExplain(c *restapi.Client, args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	var (
		mbps     = fs.Float64("mbps", 20, "expected throughput (Mbps)")
		latency  = fs.Float64("latency", 50, "maximum latency (ms)")
		duration = fs.Duration("duration", time.Hour, "slice duration")
		price    = fs.Float64("price", 100, "price willing to pay (EUR)")
		class    = fs.String("class", "eMBB", "service class: eMBB|automotive|e-health|mMTC")
		cluster  = fs.String("cluster", "", "pin to this member cluster")
	)
	fs.Parse(args)
	ex, err := c.ExplainPlacement(restapi.FedSliceRequestBody{
		SliceRequestBody: restapi.SliceRequestBody{
			ThroughputMbps:  *mbps,
			MaxLatencyMs:    *latency,
			DurationSeconds: duration.Seconds(),
			PriceEUR:        *price,
			Class:           *class,
		},
		Cluster: *cluster,
	})
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "CLUSTER\tLOCATION\tLATENCY\tHEADROOM\tELIGIBLE\tREASON")
	for _, cand := range ex.Candidates {
		fmt.Fprintf(w, "%s\t%s\t%.1fms\t%.1f\t%v\t%s\n",
			cand.Cluster, cand.Location, cand.LatencyMs, cand.HeadroomMbps,
			cand.Eligible, cand.Reason)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if !ex.Placed {
		fmt.Printf("NOT PLACEABLE [%s]: %s\n", ex.RejectCode, ex.Reason)
		return nil
	}
	legs := make([]string, 0, len(ex.Legs))
	for _, leg := range ex.Legs {
		legs = append(legs, fmt.Sprintf("%s:%.1f Mbps", leg.Cluster, leg.Mbps))
	}
	fmt.Printf("placeable: %s\n", strings.Join(legs, " + "))
	return nil
}

func cmdList(c *restapi.Client) error {
	page, err := c.ListSlices(restapi.ListQuery{})
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "ID\tTENANT\tCLASS\tSTATE\tCONTRACT\tALLOCATED\tNET€\tCAUSE\tREASON")
	for _, s := range page.Slices {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%.0f\t%.1f\t%.2f\t%s\t%s\n",
			s.ID, s.Tenant, s.Class, s.State,
			s.SLA.ThroughputMbps, s.Allocation.AllocatedMbps, s.Accounting.NetEUR, s.RejectCode, s.Reason)
	}
	return w.Flush()
}

func cmdGet(c *restapi.Client, id slice.ID) error {
	s, err := c.GetSlice(id)
	if err != nil {
		return err
	}
	fmt.Printf("slice %s (%s, %s)\n", s.ID, s.Tenant, s.Class)
	if s.RejectCode != "" {
		fmt.Printf("  state      %s [%s] %s\n", s.State, s.RejectCode, s.Reason)
	} else {
		fmt.Printf("  state      %s %s\n", s.State, s.Reason)
	}
	fmt.Printf("  contract   %.1f Mbps, <=%.1f ms, until %s\n", s.SLA.ThroughputMbps, s.SLA.MaxLatencyMs, s.Expires.Format(time.RFC3339))
	fmt.Printf("  allocated  %.1f Mbps (PLMN %s, DC %s, path %.2f ms)\n",
		s.Allocation.AllocatedMbps, s.Allocation.PLMN, s.Allocation.DataCenter, s.Allocation.PathLatencyMs)
	fmt.Printf("  accounting %+.2f EUR net (%d/%d violation epochs)\n",
		s.Accounting.NetEUR, s.Accounting.ViolationEpochs, s.Accounting.ServedEpochs)
	return nil
}

func cmdDemand(c *restapi.Client, args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: demand <slice-id> <mbps>")
	}
	var mbps float64
	if _, err := fmt.Sscanf(args[1], "%f", &mbps); err != nil {
		return fmt.Errorf("bad mbps %q", args[1])
	}
	return c.RecordDemand(slice.ID(args[0]), mbps)
}

func cmdGain(c *restapi.Client, args []string) error {
	fs := flag.NewFlagSet("gain", flag.ExitOnError)
	federated := fs.Bool("federated", false, "federation-wide aggregate + per-cluster reports")
	fs.Parse(args)
	if *federated {
		rep, err := c.FedGain()
		if err != nil {
			return err
		}
		g := rep.Aggregate
		fmt.Printf("federated multiplexing gain %.2fx  overbooking %.2fx (contracted %.1f / capacity %.1f Mbps)\n",
			g.MultiplexingGain, g.OverbookingRatio, g.ContractedMbps, g.CapacityMbps)
		fmt.Printf("slices %d active, %d admitted, %d rejected  net %.2f EUR\n",
			g.Active, g.Admitted, g.Rejected, g.NetRevenueEUR)
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "CLUSTER\tGAIN\tRATIO\tACTIVE\tADMITTED\tREJECTED\tNET€")
		for _, cg := range rep.Clusters {
			fmt.Fprintf(w, "%s\t%.2fx\t%.2fx\t%d\t%d\t%d\t%.2f\n",
				cg.Cluster, cg.Gain.MultiplexingGain, cg.Gain.OverbookingRatio,
				cg.Gain.Active, cg.Gain.Admitted, cg.Gain.Rejected, cg.Gain.NetRevenueEUR)
		}
		return w.Flush()
	}
	g, err := c.Gain()
	if err != nil {
		return err
	}
	fmt.Printf("multiplexing gain   %.2fx\n", g.MultiplexingGain)
	fmt.Printf("overbooking ratio   %.2fx (contracted %.1f / capacity %.1f Mbps)\n",
		g.OverbookingRatio, g.ContractedMbps, g.CapacityMbps)
	fmt.Printf("slices              %d active, %d admitted, %d rejected\n", g.Active, g.Admitted, g.Rejected)
	fmt.Printf("revenue             %.2f EUR  penalties %.2f EUR  net %.2f EUR\n",
		g.RevenueTotalEUR, g.PenaltyTotalEUR, g.NetRevenueEUR)
	fmt.Printf("violations          %d epochs, %d reconfigurations, %d control epochs\n",
		g.ViolationEpochs, g.Reconfigurations, g.Epochs)
	return nil
}

func cmdTopology(c *restapi.Client) error {
	links, err := c.Topology()
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "FROM\tTO\tTYPE\tCAPACITY\tRESERVED\tDELAY\tUP")
	for _, l := range links {
		fmt.Fprintf(w, "%s\t%s\t%s\t%.0f\t%.1f\t%.2fms\t%v\n",
			l.From, l.To, l.Type, l.CapacityMbps, l.ReservedMbps, l.DelayMs, l.Up)
	}
	return w.Flush()
}

package federation_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

func memberConfig(name, location string, latencyMs float64) federation.ClusterConfig {
	return federation.ClusterConfig{
		Name:      name,
		Location:  location,
		LatencyMs: latencyMs,
		Orchestrator: core.Config{
			Overbook:  true,
			Risk:      0.9,
			PLMNLimit: 64,
			Audit:     true,
		},
		Testbed: testbed.Config{MaxPLMNs: 64, RedundantTransport: true},
	}
}

// newTestFed builds a started federation joining the named members in the
// given order (Join keeps the registry name-sorted regardless).
func newTestFed(t *testing.T, seed int64, names []string) (*federation.Federation, *sim.Simulator) {
	t.Helper()
	s := sim.NewSimulator(seed)
	fed := federation.New(federation.Config{Audit: true}, s)
	// Every test runs audited: besides the barrier sweeps, each transition
	// is folded into a fresh tier that must stay equal to the live one.
	t.Cleanup(func() {
		for _, v := range fed.Auditor().Violations() {
			t.Errorf("invariant violated: %s", v)
		}
	})
	latency := map[string]float64{"east": 2, "west": 3, "north": 5}
	for _, n := range names {
		if _, err := fed.Join(memberConfig(n, "eu-"+n, latency[n])); err != nil {
			t.Fatalf("join %s: %v", n, err)
		}
	}
	return fed, s
}

func sla(mbps float64) slice.SLA {
	return slice.SLA{
		ThroughputMbps: mbps,
		MaxLatencyMs:   50,
		Duration:       2 * time.Hour,
		PriceEUR:       2 * mbps,
		PenaltyEUR:     1,
		Class:          slice.ClassEMBB,
	}
}

// TestFederatedSpanAcceptance is the PR's acceptance drill: on a 2-cluster
// federation, a request bigger than any single member's headroom installs as
// a cross-cluster span, one member submission per leg — member-local
// leg slices tagged with the owning span live on both members — and the
// conservation invariant is clean at the barrier. Deleting the span releases
// every leg.
func TestFederatedSpanAcceptance(t *testing.T) {
	fed, s := newTestFed(t, 42, []string{"east", "west"})
	fed.Start()
	defer fed.Stop()

	infos := fed.ClusterInfos()
	if len(infos) != 2 {
		t.Fatalf("want 2 clusters, got %+v", infos)
	}
	single := infos[0].HeadroomMbps
	if infos[1].HeadroomMbps < single {
		single = infos[1].HeadroomMbps
	}
	if single <= 0 {
		t.Fatalf("no headroom advertised: %+v", infos)
	}

	st, err := fed.Submit(federation.Request{Tenant: "acme", SLA: sla(1.5 * single)})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "installed" {
		t.Fatalf("span rejected: %+v", st)
	}
	if len(st.Legs) != 2 {
		t.Fatalf("want a 2-leg cross-cluster span, got %+v", st.Legs)
	}
	clusters := map[string]bool{}
	for _, leg := range st.Legs {
		clusters[leg.Cluster] = true
		c, ok := fed.Cluster(leg.Cluster)
		if !ok {
			t.Fatalf("leg on unknown cluster %q", leg.Cluster)
		}
		found := false
		for _, sn := range c.Orchestrator().List() {
			if sn.ID == leg.Slice {
				found = true
				if !strings.HasPrefix(sn.Tenant, "fed:") {
					t.Fatalf("leg %s tenant %q lacks the fed: span tag", leg.Slice, sn.Tenant)
				}
				if sn.State != "active" && sn.State != "installing" && sn.State != "admitted" {
					t.Fatalf("leg %s not live: %s", leg.Slice, sn.State)
				}
			}
		}
		if !found {
			t.Fatalf("member %s does not hold leg %s", leg.Cluster, leg.Slice)
		}
	}
	if len(clusters) != 2 {
		t.Fatalf("span did not cross clusters: %+v", st.Legs)
	}

	// Let the barrier sweep the conservation invariant a few times.
	if err := s.RunFor(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	a := fed.Auditor()
	if a == nil {
		t.Fatal("no federation auditor")
	}
	if vs := a.Violations(); len(vs) != 0 {
		t.Fatalf("conservation violations: %v", vs)
	}
	if a.Stats().Sweeps == 0 {
		t.Fatal("federation barrier never swept")
	}

	if err := fed.Delete(st.ID); err != nil {
		t.Fatal(err)
	}
	for _, leg := range st.Legs {
		c, _ := fed.Cluster(leg.Cluster)
		for _, sn := range c.Orchestrator().List() {
			if sn.ID == leg.Slice && sn.State != "terminated" {
				t.Fatalf("leg %s survives span delete in state %s", leg.Slice, sn.State)
			}
		}
	}
	if err := s.RunFor(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if vs := fed.Auditor().Violations(); len(vs) != 0 {
		t.Fatalf("post-delete violations: %v", vs)
	}
}

// TestFederationDeterminism proves placement and member outcomes are
// independent of join order: the same seed and the same submissions against
// members joined in different orders yield identical placements and
// bit-identical per-cluster gain reports.
func TestFederationDeterminism(t *testing.T) {
	orders := [][]string{
		{"east", "west", "north"},
		{"north", "west", "east"},
	}
	type outcome struct {
		spans  []federation.SpanStatus
		gains  []federation.ClusterGain
		agg    core.GainReport
		infos  []federation.ClusterInfo
		sweeps int
	}
	runs := make([]outcome, 0, len(orders))
	for _, order := range orders {
		fed, s := newTestFed(t, 7, order)
		fed.Start()
		// A mix of sizes: small single-cluster slices and oversized
		// cross-cluster spans, interleaved with time so epochs run between.
		sizes := []float64{40, 60, 500, 30, 400, 80}
		for _, mbps := range sizes {
			if _, err := fed.Submit(federation.Request{Tenant: "det", SLA: sla(mbps)}); err != nil {
				t.Fatal(err)
			}
			if err := s.RunFor(5 * time.Minute); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.RunFor(time.Hour); err != nil {
			t.Fatal(err)
		}
		o := outcome{
			spans: fed.Spans(),
			gains: fed.ClusterGains(),
			agg:   fed.Gain(),
			infos: fed.ClusterInfos(),
		}
		if fed.Auditor() != nil {
			if vs := fed.Auditor().Violations(); len(vs) != 0 {
				t.Fatalf("order %v: violations %v", order, vs)
			}
			o.sweeps = fed.Auditor().Stats().Sweeps
		}
		fed.Stop()
		runs = append(runs, o)
	}
	if !reflect.DeepEqual(runs[0].spans, runs[1].spans) {
		t.Errorf("placements diverged across join orders:\n a: %+v\n b: %+v", runs[0].spans, runs[1].spans)
	}
	if !reflect.DeepEqual(runs[0].gains, runs[1].gains) {
		t.Errorf("per-cluster gain reports diverged:\n a: %+v\n b: %+v", runs[0].gains, runs[1].gains)
	}
	if !reflect.DeepEqual(runs[0].agg, runs[1].agg) {
		t.Errorf("aggregated gain diverged:\n a: %+v\n b: %+v", runs[0].agg, runs[1].agg)
	}
	if !reflect.DeepEqual(runs[0].infos, runs[1].infos) {
		t.Errorf("cluster infos diverged:\n a: %+v\n b: %+v", runs[0].infos, runs[1].infos)
	}
	if runs[0].sweeps == 0 || runs[0].sweeps != runs[1].sweeps {
		t.Errorf("sweep counts diverged or zero: %d vs %d", runs[0].sweeps, runs[1].sweeps)
	}
}

// TestFederationPartitionRollback pins the partition semantics: partitioning
// a member rolls back spans touching it on the reachable members, placement
// excludes it, the heal deletes the orphaned legs exactly once and the books
// reconverge — all conservation-clean.
func TestFederationPartitionRollback(t *testing.T) {
	fed, s := newTestFed(t, 11, []string{"east", "west"})
	fed.Start()
	defer fed.Stop()

	infos := fed.ClusterInfos()
	single := infos[0].HeadroomMbps
	if infos[1].HeadroomMbps < single {
		single = infos[1].HeadroomMbps
	}
	st, err := fed.Submit(federation.Request{Tenant: "acme", SLA: sla(1.5 * single)})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "installed" || len(st.Legs) != 2 {
		t.Fatalf("want an installed 2-leg span, got %+v", st)
	}

	if err := fed.Partition("west"); err != nil {
		t.Fatal(err)
	}
	if _, ok := fed.Get(st.ID); ok {
		t.Fatal("span touching the partitioned member still registered")
	}
	east, _ := fed.Cluster("east")
	for _, sn := range east.Orchestrator().List() {
		if strings.HasPrefix(sn.Tenant, "fed:") && sn.State != "terminated" {
			t.Fatalf("reachable leg %s not rolled back: %s", sn.ID, sn.State)
		}
	}

	// Placement must exclude the partitioned member.
	st2, err := fed.Submit(federation.Request{Tenant: "acme", SLA: sla(20), Cluster: "west"})
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != "rejected" || st2.RejectCode != slice.RejectClusterUnavailable {
		t.Fatalf("pinned submit to partitioned member: %+v", st2)
	}

	if err := s.RunFor(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := fed.Heal("west"); err != nil {
		t.Fatal(err)
	}
	west, _ := fed.Cluster("west")
	for _, sn := range west.Orchestrator().List() {
		if strings.HasPrefix(sn.Tenant, "fed:") && sn.State != "terminated" {
			t.Fatalf("orphaned leg %s survived the heal: %s", sn.ID, sn.State)
		}
	}
	if err := s.RunFor(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if vs := fed.Auditor().Violations(); len(vs) != 0 {
		t.Fatalf("violations after heal: %v", vs)
	}

	// The healed member serves again.
	st3, err := fed.Submit(federation.Request{Tenant: "acme", SLA: sla(20), Cluster: "west"})
	if err != nil {
		t.Fatal(err)
	}
	if st3.State != "installed" {
		t.Fatalf("healed member refuses placement: %+v", st3)
	}
}

// TestFederationFailover pins Fail: the dead member never rejoins, and new
// demand re-homes onto the survivors.
func TestFederationFailover(t *testing.T) {
	fed, s := newTestFed(t, 13, []string{"east", "west"})
	fed.Start()
	defer fed.Stop()

	if err := fed.Fail("west"); err != nil {
		t.Fatal(err)
	}
	if err := fed.Heal("west"); err == nil {
		t.Fatal("healed a permanently failed member")
	}
	st, err := fed.Submit(federation.Request{Tenant: "acme", SLA: sla(20)})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "installed" || len(st.Legs) != 1 || st.Legs[0].Cluster != "east" {
		t.Fatalf("demand not re-homed to the survivor: %+v", st)
	}
	if err := s.RunFor(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if vs := fed.Auditor().Violations(); len(vs) != 0 {
		t.Fatalf("violations after fail-over: %v", vs)
	}
}

// TestFederationExplain pins the placement-explain surface.
func TestFederationExplain(t *testing.T) {
	fed, _ := newTestFed(t, 17, []string{"east", "west", "north"})
	fed.Start()
	defer fed.Stop()

	ex, err := fed.Explain(federation.Request{Tenant: "acme", SLA: sla(20)})
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Placed || len(ex.Legs) != 1 {
		t.Fatalf("small request should single-place: %+v", ex)
	}
	if ex.Legs[0].Cluster != "east" {
		t.Fatalf("want lowest-latency cluster east, got %+v", ex.Legs)
	}
	if len(ex.Candidates) != 3 {
		t.Fatalf("want 3 candidate verdicts, got %+v", ex.Candidates)
	}

	// Latency filter: a 4 ms budget excludes north (5 ms).
	tight := sla(20)
	tight.MaxLatencyMs = 4
	ex, err = fed.Explain(federation.Request{Tenant: "acme", SLA: tight})
	if err != nil {
		t.Fatal(err)
	}
	for _, cand := range ex.Candidates {
		if cand.Cluster == "north" && cand.Eligible {
			t.Fatalf("north should be latency-ineligible: %+v", cand)
		}
	}

	// Oversized request explains a split.
	infos := fed.ClusterInfos()
	total := 0.0
	for _, in := range infos {
		total += in.HeadroomMbps
	}
	ex, err = fed.Explain(federation.Request{Tenant: "acme", SLA: sla(total * 0.9)})
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Placed || len(ex.Legs) < 2 {
		t.Fatalf("oversized request should split: %+v", ex)
	}

	// Impossible request rejects with the radio-capacity code.
	ex, err = fed.Explain(federation.Request{Tenant: "acme", SLA: sla(total * 10)})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Placed || ex.RejectCode != slice.RejectRadioCapacity {
		t.Fatalf("impossible request verdict: %+v", ex)
	}
}

// TestSpanInstallRollsBackOnMemberReject drives the install loop's rollback
// branch: the second member is filled by direct submissions between
// barriers, so the federation's headroom book for it is stale and the span's
// later leg is refused by the member's own admission. The earlier leg must
// be deleted on its member, the books must return to their exact
// pre-submit values, the rejection must carry the member's cause, and the
// conservation sweep must stay clean.
func TestSpanInstallRollsBackOnMemberReject(t *testing.T) {
	fed, _ := newTestFed(t, 19, []string{"east", "west"})
	fed.Start()
	defer fed.Stop()

	infos := fed.ClusterInfos()
	need := 0.0
	for _, in := range infos {
		need += in.HeadroomMbps
	}
	need *= 0.9
	req := federation.Request{Tenant: "acme", SLA: sla(need)}
	ex, err := fed.Explain(req)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Placed || len(ex.Legs) != 2 {
		t.Fatalf("want a 2-leg placement, got %+v", ex)
	}
	first, _ := fed.Cluster(ex.Legs[0].Cluster)
	second, _ := fed.Cluster(ex.Legs[1].Cluster)

	// Fill the later leg's member behind the federation's back until its
	// own admission refuses; the federation books only re-anchor at the
	// next barrier.
	var fillCode slice.RejectCode
	for i := 0; i < 64 && fillCode == ""; i++ {
		filler := sla(10)
		sl, err := second.Orchestrator().Submit(slice.Request{Tenant: "local", SLA: filler},
			traffic.NewConstant(10, 0, nil))
		if err != nil {
			t.Fatal(err)
		}
		if cause, ok := sl.Cause(); ok && sl.State() == slice.StateRejected {
			fillCode = cause.Code
		}
	}
	if fillCode == "" {
		t.Fatal("direct submissions never filled the member")
	}

	before := fed.ClusterInfos()
	st, err := fed.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "rejected" {
		t.Fatalf("span installed over a full member: %+v", st)
	}
	if st.RejectCode != fillCode {
		t.Fatalf("reject code %q, want the member's %q", st.RejectCode, fillCode)
	}
	if prefix := "cluster " + ex.Legs[1].Cluster + ":"; !strings.HasPrefix(st.Reason, prefix) {
		t.Fatalf("reason %q lacks %q", st.Reason, prefix)
	}

	tag := "fed:" + string(st.ID)
	found := false
	for _, sn := range first.Orchestrator().List() {
		if sn.Tenant == tag {
			found = true
			if sn.State != "terminated" {
				t.Fatalf("earlier leg %s not rolled back: %s", sn.ID, sn.State)
			}
		}
	}
	if !found {
		t.Fatalf("earlier leg never reached member %s", ex.Legs[0].Cluster)
	}

	after := fed.ClusterInfos()
	for i := range before {
		if before[i].HeadroomMbps != after[i].HeadroomMbps || before[i].ReservedMbps != after[i].ReservedMbps {
			t.Fatalf("books not restored on %s: before %+v after %+v", before[i].Name, before[i], after[i])
		}
	}
	if len(fed.Spans()) != 0 {
		t.Fatalf("rejected span registered: %+v", fed.Spans())
	}

	fed.RunBarrier()
	if vs := fed.Auditor().Violations(); len(vs) != 0 {
		t.Fatalf("conservation violations after rollback: %v", vs)
	}
}

// TestBarrierDuringSpanOpsIsClean runs audited barriers back to back beside
// a stream of span submissions and deletions. Every federation verb holds
// the federation lock end to end, member calls included, so no barrier can
// see a span whose books are written but whose legs are not registered (or
// the reverse): the conservation sweep must stay clean at every cut.
func TestBarrierDuringSpanOpsIsClean(t *testing.T) {
	fed, _ := newTestFed(t, 3, []string{"east", "west"})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 400; i++ {
			st, err := fed.Submit(federation.Request{Tenant: "churn", SLA: sla(5)})
			if err != nil {
				t.Error(err)
				return
			}
			if st.State != "installed" {
				t.Errorf("span %d not installed: %+v", i, st)
				return
			}
			if err := fed.Delete(st.ID); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		fed.RunBarrier()
	}
	if vs := fed.Auditor().Violations(); len(vs) != 0 {
		t.Fatalf("%d violations over %d barriers, first: %v", len(vs), fed.Stats().Barriers, vs[0])
	}
	if st := fed.Stats(); st.SpansInstalled != 400 || st.SpansLive != 0 {
		t.Fatalf("stats %+v, want 400 installed and none live", st)
	}
}

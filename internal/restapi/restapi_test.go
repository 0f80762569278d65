package restapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/testbed"
)

// apiEnv spins up a server over a simulator-driven orchestrator; returns the
// client and the simulator so tests can advance virtual time.
func apiEnv(t *testing.T) (*Client, *sim.Simulator) {
	t.Helper()
	s := sim.NewSimulator(1)
	tb, err := testbed.New(testbed.Default(), s.Rand())
	if err != nil {
		t.Fatal(err)
	}
	orch := core.New(core.Config{Overbook: true, Risk: 0.9}, tb, s, monitor.NewStore(256))
	orch.Start()
	srv := httptest.NewServer(NewServer(orch))
	t.Cleanup(srv.Close)
	return NewClient(srv.URL), s
}

func validBody() SliceRequestBody {
	return SliceRequestBody{
		Tenant:          "acme",
		DurationSeconds: 3600,
		MaxLatencyMs:    20,
		ThroughputMbps:  30,
		PriceEUR:        100,
		PenaltyEUR:      2,
		Class:           "e-health",
	}
}

func TestHealth(t *testing.T) {
	c, _ := apiEnv(t)
	if err := c.Health(); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitAndGetSlice(t *testing.T) {
	c, s := apiEnv(t)
	snap, err := c.SubmitSlice(validBody(), "")
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != "installing" {
		t.Fatalf("state %q reason %q", snap.State, snap.Reason)
	}
	if snap.Class != "e-health" || snap.Tenant != "acme" {
		t.Fatalf("snapshot %+v", snap)
	}
	s.RunFor(15 * time.Second)
	got, err := c.GetSlice(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != "active" {
		t.Fatalf("state after install %q", got.State)
	}
	if got.Allocation.DataCenter == "" || got.Allocation.PLMN.IsZero() {
		t.Fatalf("allocation %+v", got.Allocation)
	}
}

func TestSubmitRejectedReportedInBand(t *testing.T) {
	c, _ := apiEnv(t)
	body := validBody()
	body.MaxLatencyMs = 0.01 // unmeetable
	snap, err := c.SubmitSlice(body, "")
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != "rejected" || !strings.Contains(snap.Reason, "latency") {
		t.Fatalf("state %q reason %q", snap.State, snap.Reason)
	}
	// The typed cause code crosses the wire with the snapshot.
	if snap.RejectCode != slice.RejectLatencyUnmeetable {
		t.Fatalf("reject_code %q, want %q", snap.RejectCode, slice.RejectLatencyUnmeetable)
	}
}

func TestSubmitValidationErrors(t *testing.T) {
	c, _ := apiEnv(t)
	body := validBody()
	body.ThroughputMbps = -1
	if _, err := c.SubmitSlice(body, ""); err == nil {
		t.Fatal("invalid throughput accepted")
	}
	body = validBody()
	body.Class = "quantum"
	if _, err := c.SubmitSlice(body, ""); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestListSlices(t *testing.T) {
	c, _ := apiEnv(t)
	c.SubmitSlice(validBody(), "")
	c.SubmitSlice(validBody(), "")
	page, err := c.ListSlices(ListQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Slices) != 2 || page.NextPageToken != "" {
		t.Fatalf("%d slices, next page token %q", len(page.Slices), page.NextPageToken)
	}
}

func TestDeleteSlice(t *testing.T) {
	c, s := apiEnv(t)
	snap, _ := c.SubmitSlice(validBody(), "")
	s.RunFor(15 * time.Second)
	if err := c.DeleteSlice(snap.ID); err != nil {
		t.Fatal(err)
	}
	got, _ := c.GetSlice(snap.ID)
	if got.State != "terminated" {
		t.Fatalf("state %q", got.State)
	}
	if err := c.DeleteSlice(snap.ID); err == nil {
		t.Fatal("double delete accepted")
	}
	if err := c.DeleteSlice("ghost"); err == nil {
		t.Fatal("ghost delete accepted")
	}
}

func TestDemandFeed(t *testing.T) {
	c, s := apiEnv(t)
	snap, _ := c.SubmitSlice(validBody(), "")
	s.RunFor(15 * time.Second)
	if err := c.RecordDemand(snap.ID, 12.5); err != nil {
		t.Fatal(err)
	}
	s.RunFor(2 * time.Minute) // one control epoch
	got, _ := c.GetSlice(snap.ID)
	if got.Accounting.DemandMbps != 12.5 {
		t.Fatalf("demand %v", got.Accounting.DemandMbps)
	}
	if err := c.RecordDemand("ghost", 1); err == nil {
		t.Fatal("ghost demand accepted")
	}
}

func TestGainEndpoint(t *testing.T) {
	c, s := apiEnv(t)
	c.SubmitSlice(validBody(), "")
	s.RunFor(15 * time.Second)
	g, err := c.Gain()
	if err != nil {
		t.Fatal(err)
	}
	if g.Admitted != 1 || g.CapacityMbps <= 0 {
		t.Fatalf("gain %+v", g)
	}
}

func TestMetricsEndpoints(t *testing.T) {
	c, s := apiEnv(t)
	snap, _ := c.SubmitSlice(validBody(), "")
	s.RunFor(15 * time.Second)
	c.RecordDemand(snap.ID, 10)
	s.RunFor(5 * time.Minute)
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m["orchestrator/multiplexing_gain"]; !ok {
		t.Fatalf("metrics %v", m)
	}
	series, err := c.MetricSeries("orchestrator/multiplexing_gain", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Samples) == 0 || len(series.Samples) > 3 {
		t.Fatalf("series window %d", len(series.Samples))
	}
	if series.Stats.N != len(series.Samples) {
		t.Fatalf("stats %+v", series.Stats)
	}
}

func TestMetricSeriesBadWindow(t *testing.T) {
	c, _ := apiEnv(t)
	resp, err := http.Get(c.BaseURL + "/api/v2/metrics/foo?window=bogus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// TestMetricSeriesReadsOnly: GET /api/v2/metrics/{name} is a read. A name no
// one has recorded under answers the 404 envelope and registers nothing —
// Store.Series would create a default-capacity ring per probed name and
// nothing ever drops it, so any reader could grow the daemon without bound —
// while a name a controller has pushed answers exactly what it always did.
func TestMetricSeriesReadsOnly(t *testing.T) {
	srv, orch, s := fuzzOrch(t)
	orch.Start()
	if err := s.RunFor(5 * time.Minute); err != nil { // epochs push the domain telemetry
		t.Fatal(err)
	}
	store := orch.Store()
	known := monitor.DomainMetric("ran", "utilization")
	series, ok := store.Lookup(known)
	if !ok || series.Len() == 0 {
		t.Fatalf("no %s samples after five minutes of epochs", known)
	}
	ref := func(window int) []byte {
		return encodeRef(t, SeriesResponse{Name: known, Samples: series.Window(window), Stats: series.WindowStats(window)})
	}
	before := store.Names()

	type probe struct {
		target string
		status int
		body   []byte
	}
	unknown := func(name, query string) probe {
		return probe{"/api/v2/metrics/" + name + query, http.StatusNotFound,
			encodeRef(t, errorBody{Error: fmt.Sprintf("restapi: unknown metric %q", name)})}
	}
	cases := []probe{
		{"/api/v2/metrics/" + known, http.StatusOK, ref(0)},
		{"/api/v2/metrics/" + known + "?window=3", http.StatusOK, ref(3)},
		unknown("junk/x", ""),
		unknown("junk/x", "?window=3"),
		{"/api/v2/metrics/junk/x?window=bogus", http.StatusBadRequest, encodeRef(t, errorBody{Error: `restapi: bad window "bogus"`})},
	}
	for i := 0; i < 100; i++ {
		cases = append(cases, unknown(fmt.Sprintf("junk/%d", i), ""))
	}
	for _, tc := range cases {
		rec := serve(srv, http.MethodGet, tc.target, nil, "")
		if rec.Code != tc.status || !bytes.Equal(rec.Body.Bytes(), tc.body) {
			t.Errorf("GET %s: %d %s, want %d %s", tc.target, rec.Code, rec.Body, tc.status, tc.body)
		}
	}

	ts := httptest.NewServer(srv)
	defer ts.Close()
	_, err := NewClient(ts.URL).MetricSeries("junk/client", 0)
	if ae := asAPIError(t, err); ae.Status != http.StatusNotFound {
		t.Errorf("client: %v, want a 404", ae)
	}
	if after := store.Names(); !slices.Equal(after, before) {
		t.Errorf("reads registered series: %d names before, %d after", len(before), len(after))
	}
}

// TestMetricSeriesEscapedName: the client escapes each segment of a series
// name, so one holding '?', '#', '%' or a space reads back whole rather than
// truncated at the query or fragment, or rejected as a bad escape.
func TestMetricSeriesEscapedName(t *testing.T) {
	srv, orch, _ := fuzzOrch(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	for i, name := range []string{"odd/a b", "odd/what?x=1", "odd/c#d", "odd/100%", "odd/%41/sub dir/z"} {
		orch.Store().Series(name).Add(time.Unix(int64(i), 0), float64(i+1))
		got, err := c.MetricSeries(name, 0)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if got.Name != name || len(got.Samples) != 1 || got.Samples[0].Value != float64(i+1) {
			t.Fatalf("%q read back as %q with %+v", name, got.Name, got.Samples)
		}
	}
}

// TestMetricSeriesStatsMatchSamples: GET /api/v2/metrics/{name} reads its
// window once. With a writer appending increasing values beside the reads,
// every answer's stats summarise exactly the samples in the same answer —
// when the handler read the window twice, an append between the reads gave
// the stats a later window than the samples.
func TestMetricSeriesStatsMatchSamples(t *testing.T) {
	srv, orch, _ := fuzzOrch(t)
	series := orch.Store().Series("race/rising")
	series.AddNanos(0, 0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
				series.AddNanos(i, float64(i))
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()
	for i := 0; i < 2000; i++ {
		target := "/api/v2/metrics/race/rising"
		if i%2 == 1 {
			target += "?window=8"
		}
		rec := serve(srv, http.MethodGet, target, nil, "")
		var got SeriesResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("GET %s: %d %v", target, rec.Code, err)
		}
		sum := 0.0
		for _, smp := range got.Samples {
			sum += smp.Value
		}
		if got.Stats.N != len(got.Samples) || got.Stats.Mean != sum/float64(len(got.Samples)) {
			t.Fatalf("GET %s answered %d samples with mean %v, stats n=%d mean=%v",
				target, len(got.Samples), sum/float64(len(got.Samples)), got.Stats.N, got.Stats.Mean)
		}
	}
}

func TestTopologyEndpoint(t *testing.T) {
	c, _ := apiEnv(t)
	links, err := c.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if len(links) == 0 {
		t.Fatal("no links")
	}
	seenTypes := map[string]bool{}
	for _, l := range links {
		seenTypes[l.Type] = true
	}
	if !seenTypes["mmWave"] || !seenTypes["µWave"] || !seenTypes["wired"] {
		t.Fatalf("link types %v", seenTypes)
	}
}

func TestInfrastructureEndpoints(t *testing.T) {
	c, s := apiEnv(t)
	c.SubmitSlice(validBody(), "")
	s.RunFor(15 * time.Second)
	for _, path := range []string{"/api/v2/enbs", "/api/v2/datacenters", "/api/v2/epcs"} {
		resp, err := http.Get(c.BaseURL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s -> %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestMethodNotAllowed(t *testing.T) {
	c, _ := apiEnv(t)
	req, _ := http.NewRequest(http.MethodPut, c.BaseURL+"/api/v2/slices", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestBadJSONRejected(t *testing.T) {
	c, _ := apiEnv(t)
	resp, err := http.Post(c.BaseURL+"/api/v2/slices", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// TestSLABeyondBookBoundsRejected: an ask the fixed-point books could not
// hold is the tenant's 400, while a merely enormous one (the repository
// benchmark's 2^20-Mbps reject_storm request) is still decided by admission.
func TestSLABeyondBookBoundsRejected(t *testing.T) {
	c, _ := apiEnv(t)
	resp, err := http.Post(c.BaseURL+"/api/v2/slices", "application/json", strings.NewReader(
		`{"tenant":"acme","duration_seconds":3600,"max_latency_ms":20,"throughput_mbps":1e300,"price_eur":100,"penalty_eur":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("1e300 Mbps: status %d, want 400", resp.StatusCode)
	}
	huge := validBody()
	huge.ThroughputMbps = 1 << 20
	snap, err := c.SubmitSlice(huge, "")
	if err != nil {
		t.Fatalf("2^20 Mbps: %v, want a decided request", err)
	}
	if snap.State != "rejected" || !strings.HasSuffix(string(snap.RejectCode), "-capacity") {
		t.Fatalf("2^20 Mbps: state %q code %q, want rejected/*-capacity", snap.State, snap.RejectCode)
	}
}

func TestClassParsing(t *testing.T) {
	for s, want := range map[string]slice.ServiceClass{
		"": slice.ClassEMBB, "eMBB": slice.ClassEMBB, "automotive": slice.ClassAutomotive,
		"e-health": slice.ClassEHealth, "ehealth": slice.ClassEHealth, "MMTC": slice.ClassMMTC,
	} {
		if req, err := (SliceRequestBody{Class: s}).Request(); err != nil || req.SLA.Class != want {
			t.Fatalf("class %q: %v, %v; want %v", s, req.SLA.Class, err, want)
		}
	}
	if _, err := (SliceRequestBody{Class: "warp"}).Request(); err == nil {
		t.Fatal("bad class accepted")
	}
}

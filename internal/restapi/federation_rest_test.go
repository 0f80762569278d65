package restapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/testbed"
)

// fedEnv spins up a federation API server over a three-member,
// simulator-driven federation; returns the client, the server (for raw
// requests) and the simulator so tests can advance virtual time.
func fedEnv(t *testing.T) (*Client, *FederationServer, *sim.Simulator) {
	t.Helper()
	s := sim.NewSimulator(1)
	fed := federation.New(federation.Config{Audit: true}, s)
	latency := map[string]float64{"east": 2, "west": 3, "north": 5}
	for _, name := range []string{"east", "west", "north"} {
		_, err := fed.Join(federation.ClusterConfig{
			Name:      name,
			Location:  "eu-" + name,
			LatencyMs: latency[name],
			Orchestrator: core.Config{
				Overbook:  true,
				Risk:      0.9,
				PLMNLimit: 64,
				Audit:     true,
			},
			Testbed: testbed.Config{MaxPLMNs: 64, RedundantTransport: true},
		})
		if err != nil {
			t.Fatalf("join %s: %v", name, err)
		}
	}
	fed.Start()
	fsrv := NewFederationServer(fed)
	ts := httptest.NewServer(fsrv)
	t.Cleanup(ts.Close)
	return NewClient(ts.URL), fsrv, s
}

func validFedBody(mbps float64) FedSliceRequestBody {
	return FedSliceRequestBody{SliceRequestBody: SliceRequestBody{
		Tenant:          "acme",
		DurationSeconds: 7200,
		MaxLatencyMs:    50,
		ThroughputMbps:  mbps,
		PriceEUR:        2 * mbps,
		PenaltyEUR:      1,
		Class:           "eMBB",
	}}
}

// rawFed performs one raw HTTP request against the federation server.
func rawFed(t *testing.T, c *Client, method, path string, body any, hdr http.Header) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestFederation405Envelopes: every federation route answers a wrong method
// with the JSON 405 envelope, exactly like the single-cluster surface.
func TestFederation405Envelopes(t *testing.T) {
	c, _, _ := fedEnv(t)
	cases := []struct {
		method, path, want string
	}{
		{http.MethodPost, "/api/v2/federation/clusters", "restapi: use GET"},
		{http.MethodDelete, "/api/v2/federation/clusters", "restapi: use GET"},
		{http.MethodPut, "/api/v2/federation/slices", "restapi: use GET or POST"},
		{http.MethodDelete, "/api/v2/federation/slices", "restapi: use GET or POST"},
		{http.MethodPost, "/api/v2/federation/slices/f-1", "restapi: use GET or DELETE"},
		{http.MethodPut, "/api/v2/federation/slices/f-1", "restapi: use GET or DELETE"},
		{http.MethodPut, "/api/v2/federation/slices/f-1/extra", "restapi: use GET or DELETE"},
		{http.MethodGet, "/api/v2/federation/placement/explain", "restapi: use POST"},
		{http.MethodDelete, "/api/v2/federation/placement/explain", "restapi: use POST"},
		{http.MethodPost, "/api/v2/federation/events", "restapi: use GET"},
		{http.MethodPost, "/api/v2/federation/gain", "restapi: use GET"},
		{http.MethodDelete, "/api/v2/federation/stats", "restapi: use GET"},
	}
	for _, tc := range cases {
		resp := rawFed(t, c, tc.method, tc.path, nil, nil)
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tc.method, tc.path, resp.StatusCode)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: content type %q", tc.method, tc.path, ct)
		}
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Errorf("%s %s: decode envelope: %v", tc.method, tc.path, err)
			continue
		}
		if eb.Error != tc.want {
			t.Errorf("%s %s: envelope %q, want %q", tc.method, tc.path, eb.Error, tc.want)
		}
	}
}

// TestFederationUnknownEndpoint: paths under /api/v2/federation/ no pattern
// claims get the JSON 404 envelope, not the default text 404.
func TestFederationUnknownEndpoint(t *testing.T) {
	c, _, _ := fedEnv(t)
	resp := rawFed(t, c, http.MethodGet, "/api/v2/federation/nope", nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eb.Error, "unknown federation endpoint") {
		t.Fatalf("envelope %q", eb.Error)
	}
}

// TestFederationPlacementExplainGolden pins the explain endpoint's wire
// format — field names, candidate order, verdict strings — against locally
// declared golden structs. The headroom numbers come from the clusters
// endpoint (same books, same barrier), so the comparison is exact.
func TestFederationPlacementExplainGolden(t *testing.T) {
	c, _, _ := fedEnv(t)
	infos, err := c.FedClusters()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 {
		t.Fatalf("clusters %+v", infos)
	}
	headroom := make(map[string]float64)
	for _, in := range infos {
		headroom[in.Name] = in.HeadroomMbps
	}

	// 1 Mbps with a 4 ms budget: east (2 ms) and west (3 ms) are eligible,
	// north (5 ms) is latency-blocked; east wins as the lowest-latency
	// member fitting the whole contract.
	body := validFedBody(1)
	body.MaxLatencyMs = 4
	resp := rawFed(t, c, http.MethodPost, "/api/v2/federation/placement/explain", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	// Golden wire format, declared independently of the server's structs.
	type goldCand struct {
		Cluster      string  `json:"cluster"`
		Location     string  `json:"location,omitempty"`
		LatencyMs    float64 `json:"latency_ms"`
		HeadroomMbps float64 `json:"headroom_mbps"`
		Alive        bool    `json:"alive"`
		Eligible     bool    `json:"eligible"`
		Reason       string  `json:"reason,omitempty"`
	}
	type goldLeg struct {
		Cluster string  `json:"cluster"`
		Mbps    float64 `json:"mbps"`
	}
	type goldExplain struct {
		Placed     bool       `json:"placed"`
		RejectCode string     `json:"reject_code,omitempty"`
		Reason     string     `json:"reason,omitempty"`
		Candidates []goldCand `json:"candidates"`
		Legs       []goldLeg  `json:"legs,omitempty"`
	}
	want, err := json.Marshal(goldExplain{
		Placed: true,
		Candidates: []goldCand{
			{Cluster: "east", Location: "eu-east", LatencyMs: 2,
				HeadroomMbps: headroom["east"], Alive: true, Eligible: true},
			{Cluster: "north", Location: "eu-north", LatencyMs: 5,
				HeadroomMbps: headroom["north"], Alive: true,
				Reason: "federation latency 5.0 ms leaves no budget out of 4.0 ms"},
			{Cluster: "west", Location: "eu-west", LatencyMs: 3,
				HeadroomMbps: headroom["west"], Alive: true, Eligible: true},
		},
		Legs: []goldLeg{{Cluster: "east", Mbps: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(got)) != string(want) {
		t.Fatalf("explain wire format drifted:\n got: %s\nwant: %s", got, want)
	}
}

// TestFederationSubmitIdempotency: the first request with a key submits,
// duplicates replay the same span with Idempotency-Replay: true, and a
// different key creates a new span.
func TestFederationSubmitIdempotency(t *testing.T) {
	c, _, _ := fedEnv(t)
	body := validFedBody(10)
	hdr := http.Header{"Idempotency-Key": []string{"k1"}}

	first := rawFed(t, c, http.MethodPost, "/api/v2/federation/slices", body, hdr)
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first status %d", first.StatusCode)
	}
	if first.Header.Get("Idempotency-Replay") != "" {
		t.Fatal("fresh submission marked as replay")
	}
	var st1 federation.SpanStatus
	if err := json.NewDecoder(first.Body).Decode(&st1); err != nil {
		t.Fatal(err)
	}

	second := rawFed(t, c, http.MethodPost, "/api/v2/federation/slices", body, hdr)
	if second.StatusCode != http.StatusAccepted {
		t.Fatalf("replay status %d", second.StatusCode)
	}
	if second.Header.Get("Idempotency-Replay") != "true" {
		t.Fatal("duplicate not marked as replay")
	}
	var st2 federation.SpanStatus
	if err := json.NewDecoder(second.Body).Decode(&st2); err != nil {
		t.Fatal(err)
	}
	if st1.ID != st2.ID {
		t.Fatalf("replay created a new span: %s vs %s", st1.ID, st2.ID)
	}

	st3, err := c.SubmitSpan(body, "k2")
	if err != nil {
		t.Fatal(err)
	}
	if st3.ID == st1.ID {
		t.Fatalf("distinct key replayed span %s", st1.ID)
	}
	spans, err := c.ListSpans()
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("spans after 3 posts with 2 keys: %+v", spans)
	}
}

// TestFederationSubmitErrorNotCached: an internal submission failure is a
// 500 and is NOT cached under the key — the retry re-attempts and succeeds
// as a fresh submission.
func TestFederationSubmitErrorNotCached(t *testing.T) {
	c, fsrv, _ := fedEnv(t)
	real := fsrv.submit
	fsrv.submit = func(federation.Request) (federation.SpanStatus, error) {
		return federation.SpanStatus{}, fmt.Errorf("injected backend failure")
	}
	hdr := http.Header{"Idempotency-Key": []string{"k-retry"}}
	resp := rawFed(t, c, http.MethodPost, "/api/v2/federation/slices", validFedBody(10), hdr)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	fsrv.submit = real
	retry := rawFed(t, c, http.MethodPost, "/api/v2/federation/slices", validFedBody(10), hdr)
	if retry.StatusCode != http.StatusAccepted {
		t.Fatalf("retry status %d, want 202", retry.StatusCode)
	}
	if retry.Header.Get("Idempotency-Replay") != "" {
		t.Fatal("retry after failure must not be a replay")
	}
}

// TestFederationSpanLifecycleREST drives the whole surface end to end: a
// request bigger than any single member installs as a cross-cluster span,
// shows up in the registry books and the merged event stream, and tears
// down across all legs on DELETE.
func TestFederationSpanLifecycleREST(t *testing.T) {
	c, _, s := fedEnv(t)
	infos, err := c.FedClusters()
	if err != nil {
		t.Fatal(err)
	}
	var max float64
	for _, in := range infos {
		if in.HeadroomMbps > max {
			max = in.HeadroomMbps
		}
	}
	st, err := c.SubmitSpan(validFedBody(1.2*max), "")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "installed" || len(st.Legs) < 2 {
		t.Fatalf("span %+v", st)
	}
	got, err := c.GetSpan(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != st.ID || len(got.Legs) != len(st.Legs) {
		t.Fatalf("get %+v vs submit %+v", got, st)
	}

	stats, err := c.FedStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SpansInstalled != 1 || stats.SpansCrossCluster != 1 || stats.SpansLive != 1 {
		t.Fatalf("stats %+v", stats)
	}

	s.RunFor(2 * time.Minute) // past one federation barrier

	evs, err := c.FedEvents(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("no member events for the span legs")
	}
	legCluster := make(map[string]bool)
	for _, ev := range evs {
		legCluster[ev.Cluster] = true
	}
	for _, leg := range st.Legs {
		if !legCluster[leg.Cluster] {
			t.Fatalf("no event from leg cluster %s: %+v", leg.Cluster, evs)
		}
	}

	gain, err := c.FedGain()
	if err != nil {
		t.Fatal(err)
	}
	if len(gain.Clusters) != 3 || gain.Aggregate.Admitted < 2 {
		t.Fatalf("gain %+v", gain)
	}

	if err := c.DeleteSpan(st.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetSpan(st.ID); err == nil {
		t.Fatal("span still present after delete")
	}
	if err := c.DeleteSpan(st.ID); err == nil {
		t.Fatal("double delete should 404")
	}
}

// TestFederationSubmitValidation: malformed bodies are the tenant's fault.
func TestFederationSubmitValidation(t *testing.T) {
	c, _, _ := fedEnv(t)
	cases := []struct {
		name string
		body any
		raw  string
	}{
		{name: "bad-json", raw: "{nope"},
		{name: "bad-class", body: func() FedSliceRequestBody {
			b := validFedBody(10)
			b.Class = "quantum"
			return b
		}()},
		{name: "no-tenant", body: func() FedSliceRequestBody {
			b := validFedBody(10)
			b.Tenant = ""
			return b
		}()},
		{name: "zero-throughput", body: func() FedSliceRequestBody {
			b := validFedBody(0)
			return b
		}()},
	}
	for _, tc := range cases {
		var resp *http.Response
		if tc.raw != "" {
			r, err := http.Post(c.BaseURL+"/api/v2/federation/slices", "application/json", strings.NewReader(tc.raw))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Body.Close() })
			resp = r
		} else {
			resp = rawFed(t, c, http.MethodPost, "/api/v2/federation/slices", tc.body, nil)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	// A pinned-but-unknown cluster is a business rejection, in-band.
	body := validFedBody(10)
	body.Cluster = "mars"
	st, err := c.SubmitSpan(body, "")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "rejected" || st.RejectCode != slice.RejectClusterUnavailable {
		t.Fatalf("pinned-unknown outcome %+v", st)
	}
}

// TestFedBadMeanDemandIs400: a mean demand that is negative or above the
// throughput bound is the tenant's fault on both the submit and the explain
// route, never a silent default or an admitted span.
func TestFedBadMeanDemandIs400(t *testing.T) {
	c, _, _ := fedEnv(t)
	for _, path := range []string{"/api/v2/federation/slices", "/api/v2/federation/placement/explain"} {
		for _, bad := range []float64{-5, 1e300} {
			body := validFedBody(10)
			body.MeanDemandMbps = bad
			if resp := rawFed(t, c, http.MethodPost, path, body, nil); resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s mean_demand_mbps=%g: status %d, want 400", path, bad, resp.StatusCode)
			}
		}
	}
	if spans, err := c.ListSpans(); err != nil || len(spans) != 0 {
		t.Fatalf("bad requests left spans %+v (err %v)", spans, err)
	}
}

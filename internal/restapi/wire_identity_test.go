package restapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/slice"
	"repro/internal/traffic"
)

// The slice read plane answers from cached fragments (DESIGN.md §7.3). Its
// contract is byte identity with what the reflection encoder wrote before:
// these tests compare every body against json.Encoder over the snapshot API.

// encodeRef is the reference body: what writeJSON would have sent for v.
func encodeRef(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkWire asserts a response is exactly want, sent with its length.
func checkWire(t testing.TB, what string, rec *httptest.ResponseRecorder, want []byte) {
	t.Helper()
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("%s: body differs from encoding/json\n got %s\nwant %s", what, got, want)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(want)) {
		t.Fatalf("%s: Content-Length %q, want %d", what, got, len(want))
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json" {
		t.Fatalf("%s: Content-Type %q", what, got)
	}
}

func serve(srv *Server, method, target string, body []byte, key string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// oddTenant exercises every escape the stdlib encoder applies by default.
const oddTenant = "a<b>&c\u2028d\"e"

// wirePopulation registers eight slices, s-1 to s-8: five active ones for
// four tenants (the testbed's cells broadcast six PLMNs at most), one
// rejected, one terminated and one still installing, two control epochs in.
func wirePopulation(t testing.TB) (*Server, *core.Orchestrator) {
	t.Helper()
	srv, orch, s := fuzzOrch(t)
	submit := func(tenant string, latencyMs float64) *slice.Slice {
		sl, err := orch.Submit(slice.Request{
			Tenant: tenant,
			SLA: slice.SLA{ThroughputMbps: 5, MaxLatencyMs: latencyMs,
				Duration: time.Hour, PriceEUR: 10, PenaltyEUR: 1, Class: slice.ClassEMBB},
		}, traffic.NewConstant(2, 0, nil))
		if err != nil {
			t.Fatal(err)
		}
		return sl
	}
	for i := 0; i < 4; i++ {
		submit("tenant-"+strconv.Itoa(i%3), 50)
	}
	submit(oddTenant, 50)
	if sl := submit("tenant-0", 0.01); sl.State() != slice.StateRejected {
		t.Fatalf("unmeetable latency was %s, want rejected", sl.State())
	}
	gone := submit("tenant-1", 50)
	if err := s.RunFor(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := orch.Delete(gone.ID()); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if sl := submit("tenant-2", 50); sl.State() != slice.StateInstalling {
		t.Fatalf("late slice is %s (%s), want installing", sl.State(), sl.Reason())
	}
	return srv, orch
}

func listTarget(opts core.ListOptions) string {
	q := url.Values{}
	for k, v := range map[string]string{
		"state": opts.State, "tenant": opts.Tenant, "reject_code": string(opts.RejectCode), "page_token": opts.PageToken,
	} {
		if v != "" {
			q.Set(k, v)
		}
	}
	if opts.Limit != 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	return "/api/v2/slices?" + q.Encode()
}

// checkListIdentity compares one 200 list answer with the reference page.
func checkListIdentity(t testing.TB, orch *core.Orchestrator, opts core.ListOptions, rec *httptest.ResponseRecorder) core.ListPage {
	t.Helper()
	page, err := orch.ListFiltered(opts)
	if err != nil {
		t.Fatalf("%+v: handler answered 200, ListFiltered: %v", opts, err)
	}
	checkWire(t, listTarget(opts), rec, encodeRef(t, page))
	return page
}

func TestWireIdentityListV2(t *testing.T) {
	srv, orch := wirePopulation(t)
	for _, tc := range []struct {
		name string
		opts core.ListOptions
		want int // slices on the page
	}{
		{"everything", core.ListOptions{}, 8},
		{"empty page", core.ListOptions{Tenant: "nobody"}, 0},
		{"unknown state", core.ListOptions{State: "bogus"}, 0},
		{"first page", core.ListOptions{Limit: 4}, 4},
		{"last page, no token", core.ListOptions{Limit: 4, PageToken: "6"}, 2},
		{"exactly the rest, no token", core.ListOptions{Limit: 2, PageToken: "6"}, 2},
		{"past the end", core.ListOptions{Limit: 4, PageToken: "99"}, 0},
		{"state active", core.ListOptions{State: "active"}, 5},
		{"state installing", core.ListOptions{State: "installing"}, 1},
		{"state terminated", core.ListOptions{State: "terminated"}, 1},
		{"state rejected", core.ListOptions{State: "rejected"}, 1},
		{"reject code", core.ListOptions{RejectCode: slice.RejectLatencyUnmeetable}, 1},
		{"other reject code", core.ListOptions{RejectCode: slice.RejectRadioCapacity}, 0},
		{"contradiction", core.ListOptions{State: "active", RejectCode: slice.RejectLatencyUnmeetable}, 0},
		{"tenant", core.ListOptions{Tenant: "tenant-1"}, 2},
		{"tenant paged", core.ListOptions{Tenant: "tenant-0", Limit: 2}, 2},
		{"escaped tenant", core.ListOptions{Tenant: oddTenant}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := serve(srv, http.MethodGet, listTarget(tc.opts), nil, "")
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			if page := checkListIdentity(t, orch, tc.opts, rec); len(page.Slices) != tc.want {
				t.Fatalf("%d slices on the page, want %d", len(page.Slices), tc.want)
			}
		})
	}
	if got := serve(srv, http.MethodGet, "/api/v2/slices?tenant=nobody", nil, "").Body.String(); got != "{\"slices\":[]}\n" {
		t.Fatalf("empty page is %q", got)
	}
}

// TestWireIdentityPagesConcatenate walks the listing at limit=3: the pages'
// elements, in order, are the unpaginated list's elements byte for byte.
func TestWireIdentityPagesConcatenate(t *testing.T) {
	srv, orch := wirePopulation(t)
	type rawPage struct {
		Slices []json.RawMessage `json:"slices"`
		Next   string            `json:"next_page_token"`
	}
	decode := func(opts core.ListOptions) rawPage {
		rec := serve(srv, http.MethodGet, listTarget(opts), nil, "")
		checkListIdentity(t, orch, opts, rec)
		var p rawPage
		if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	whole := decode(core.ListOptions{})
	var walked []json.RawMessage
	pages := 0
	for opts := (core.ListOptions{Limit: 3}); ; pages++ {
		p := decode(opts)
		walked = append(walked, p.Slices...)
		if p.Next == "" {
			break
		}
		opts.PageToken = p.Next
	}
	if pages != 2 || len(walked) != len(whole.Slices) {
		t.Fatalf("walk followed %d tokens and saw %d slices, want 2 and %d", pages, len(walked), len(whole.Slices))
	}
	for i := range walked {
		if !bytes.Equal(walked[i], whole.Slices[i]) {
			t.Fatalf("element %d differs between the paged walk and the whole list:\n%s\n%s", i, walked[i], whole.Slices[i])
		}
	}
}

func TestWireIdentityListV1AndGet(t *testing.T) {
	srv, orch := wirePopulation(t)
	checkWire(t, "v1 list", serve(srv, http.MethodGet, "/api/v1/slices", nil, ""), encodeRef(t, orch.List()))
	for _, snap := range orch.List() {
		for _, base := range []string{"/api/v1/slices/", "/api/v2/slices/"} {
			rec := serve(srv, http.MethodGet, base+string(snap.ID), nil, "")
			if rec.Code != http.StatusOK {
				t.Fatalf("get %s: status %d", snap.ID, rec.Code)
			}
			checkWire(t, base+string(snap.ID), rec, encodeRef(t, snap))
		}
	}

	empty, fresh, _ := fuzzOrch(t)
	checkWire(t, "empty v1 list", serve(empty, http.MethodGet, "/api/v1/slices", nil, ""), encodeRef(t, fresh.List()))
}

// TestWireIdentitySubmit covers the submit reply on both surfaces, accepted
// and rejected, and an Idempotency-Replay refreshed after the slice changed.
func TestWireIdentitySubmit(t *testing.T) {
	srv, orch, s := fuzzOrch(t)
	current := func(rec *httptest.ResponseRecorder) []byte {
		var got slice.Snapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("reply does not decode: %v (%s)", err, rec.Body)
		}
		sl, ok := orch.Get(got.ID)
		if !ok {
			t.Fatalf("reply names unknown slice %q", got.ID)
		}
		return encodeRef(t, sl.Snapshot())
	}
	body := validBody()
	body.Tenant = oddTenant
	accepted, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	body.MaxLatencyMs = 0.01
	rejected, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/api/v1/slices", "/api/v2/slices"} {
		rec := serve(srv, http.MethodPost, path, accepted, "")
		if rec.Code != http.StatusAccepted {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
		checkWire(t, path+" accepted", rec, current(rec))
		rec = serve(srv, http.MethodPost, path, rejected, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("%s rejected: status %d: %s", path, rec.Code, rec.Body)
		}
		checkWire(t, path+" rejected", rec, current(rec))
	}

	first := serve(srv, http.MethodPost, "/api/v2/slices", accepted, "key-1")
	checkWire(t, "keyed submit", first, current(first))
	if err := s.RunFor(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	replay := serve(srv, http.MethodPost, "/api/v2/slices", accepted, "key-1")
	if replay.Code != http.StatusAccepted || replay.Header().Get("Idempotency-Replay") != "true" {
		t.Fatalf("replay: status %d, Idempotency-Replay %q", replay.Code, replay.Header().Get("Idempotency-Replay"))
	}
	checkWire(t, "replay", replay, current(replay))
	if bytes.Equal(replay.Body.Bytes(), first.Body.Bytes()) || !bytes.Contains(replay.Body.Bytes(), []byte(`"state":"active"`)) {
		t.Fatalf("replay was not refreshed to the active slice: %s", replay.Body)
	}
}

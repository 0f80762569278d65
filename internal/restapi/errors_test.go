package restapi

// Satellite coverage: the v1/v2 error surface — method-not-allowed JSON
// envelopes across every route, the validation-vs-internal submit status
// mapping, client error decoding, and writeJSON's encode-failure logging.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/testbed"
)

// TestMethodNotAllowedAllRoutes table-drives the wrong method against every
// method-restricted route, v1 and v2: all must return the JSON 405 envelope
// (not the mux's plain-text default) with the route's usage hint.
func TestMethodNotAllowedAllRoutes(t *testing.T) {
	c, _ := apiEnv(t)
	cases := []struct {
		method, path, wantMsg string
	}{
		{http.MethodPut, "/api/v1/slices", "restapi: use GET or POST"},
		{http.MethodDelete, "/api/v1/slices", "restapi: use GET or POST"},
		{http.MethodHead, "/api/v1/slices", "restapi: use GET or POST"},
		{http.MethodPatch, "/api/v1/slices/s-1", "restapi: use GET or DELETE"},
		{http.MethodPost, "/api/v1/slices/s-1", "restapi: use GET or DELETE"},
		{http.MethodHead, "/api/v1/slices/s-1", "restapi: use GET or DELETE"},
		{http.MethodGet, "/api/v1/slices/s-1/demand", "restapi: use POST"},
		{http.MethodDelete, "/api/v1/slices/s-1/demand", "restapi: use POST"},
		// Subtree-fallback paths the method patterns reject keep the old
		// prefix handler's envelope too.
		{http.MethodPost, "/api/v1/slices/s-1/extra", "restapi: use GET or DELETE"},
		{http.MethodPut, "/api/v1/slices/", "restapi: use GET or DELETE"},
		{http.MethodGet, "/api/v1/links/a/b/fail", "restapi: use POST"},
		{http.MethodPut, "/api/v1/links/a/b/degrade", "restapi: use POST"},
		{http.MethodPut, "/api/v2/slices", "restapi: use GET or POST"},
		{http.MethodPatch, "/api/v2/slices/s-1", "restapi: use GET or DELETE"},
		{http.MethodPost, "/api/v2/events", "restapi: use GET"},
		{http.MethodDelete, "/api/v2/events", "restapi: use GET"},
	}
	for _, tc := range cases {
		t.Run(tc.method+" "+tc.path, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, c.BaseURL+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("status %d, want 405", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("content type %q: the JSON envelope was lost", ct)
			}
			if tc.method == http.MethodHead {
				return // HEAD responses carry no body by HTTP semantics
			}
			var eb errorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatalf("non-JSON 405 body: %v", err)
			}
			if eb.Error != tc.wantMsg {
				t.Fatalf("message %q, want %q", eb.Error, tc.wantMsg)
			}
		})
	}
}

// TestSubmitInternalError5xx pins the satellite fix: validation failures
// stay 400, but a post-validation Submit failure (capacity ledger,
// transition bug, ...) is an internal 5xx — on v1 and v2 alike.
func TestSubmitInternalError5xx(t *testing.T) {
	s := sim.NewSimulator(1)
	tb, err := testbed.New(testbed.Default(), s.Rand())
	if err != nil {
		t.Fatal(err)
	}
	orch := core.New(core.Config{Overbook: true, Risk: 0.9}, tb, s, monitor.NewStore(256))
	srv := NewServer(orch)
	srv.submit = func(slice.Request) (*slice.Slice, error) {
		return nil, errors.New("capacity ledger corrupted")
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, path := range []string{"/api/v1/slices", "/api/v2/slices"} {
		resp, err := http.Post(ts.URL+path, "application/json", jsonBody(t, validBody()))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("%s: status %d, want 500", path, resp.StatusCode)
		}
		if !strings.Contains(eb.Error, "ledger corrupted") {
			t.Fatalf("%s: error %q", path, eb.Error)
		}
	}

	// Validation failures remain the tenant's 400 even with the seam broken.
	bad := validBody()
	bad.ThroughputMbps = -1
	resp, err := http.Post(ts.URL+"/api/v1/slices", "application/json", jsonBody(t, bad))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("validation status %d, want 400", resp.StatusCode)
	}
}

// TestIdempotentSubmitFailureNotCached: a 5xx under an Idempotency-Key must
// not poison the key — the retry re-attempts and succeeds.
func TestIdempotentSubmitFailureNotCached(t *testing.T) {
	s := sim.NewSimulator(1)
	tb, err := testbed.New(testbed.Default(), s.Rand())
	if err != nil {
		t.Fatal(err)
	}
	orch := core.New(core.Config{Overbook: true, Risk: 0.9}, tb, s, monitor.NewStore(256))
	srv := NewServer(orch)
	fail := true
	srv.submit = func(req slice.Request) (*slice.Slice, error) {
		if fail {
			return nil, errors.New("transient backend failure")
		}
		return orch.Submit(req, nil)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)

	if _, err := c.SubmitSliceV2(validBody(), "retry-key"); err == nil {
		t.Fatal("expected the injected failure")
	}
	fail = false
	snap, err := c.SubmitSliceV2(validBody(), "retry-key")
	if err != nil {
		t.Fatalf("retry after 5xx failed: %v", err)
	}
	if snap.State != "installing" {
		t.Fatalf("state %q", snap.State)
	}
}

// TestClientErrorPaths covers the typed client against every error shape
// the server produces.
func TestClientErrorPaths(t *testing.T) {
	c, _ := apiEnv(t)

	// 404 with JSON envelope decodes into apiError.
	_, err := c.GetSlice("ghost")
	var ae *apiError
	if !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		t.Fatalf("get ghost: %v", err)
	}
	if !strings.Contains(ae.Error(), "not found") {
		t.Fatalf("apiError message %q", ae.Error())
	}
	if err := c.DeleteSlice("ghost"); err == nil {
		t.Fatal("delete ghost accepted")
	}
	if err := c.RecordDemand("ghost", 1); err == nil {
		t.Fatal("demand ghost accepted")
	}

	// Non-JSON error body (the mux's own 404) falls back to the status line.
	if err := c.do(http.MethodGet, "/api/v1/nope", nil, nil); err == nil {
		t.Fatal("unknown route accepted")
	} else if !errors.As(err, &ae) || ae.Status != http.StatusNotFound || ae.Msg == "" {
		t.Fatalf("plain-text 404: %v", err)
	}

	// Malformed slice paths keep the old prefix handler's JSON 404
	// envelope (first segment is taken as the — unknown — ID), v1 and v2.
	for _, path := range []string{
		"/api/v1/slices/", "/api/v1/slices/ghost/extra/deep",
		"/api/v2/slices/", "/api/v2/slices/ghost/extra",
	} {
		err := c.do(http.MethodGet, path, nil, nil)
		if !errors.As(err, &ae) || ae.Status != http.StatusNotFound || !strings.Contains(ae.Msg, "not found") {
			t.Fatalf("%s: %v", path, err)
		}
	}

	// v2 pagination token error surfaces as a 400 apiError.
	if _, err := c.ListSlicesV2(ListQuery{PageToken: "bogus"}); err == nil {
		t.Fatal("bad page token accepted")
	} else if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("bad token: %v", err)
	}

	// Unreachable server is a transport error, not an apiError.
	dead := NewClient("http://127.0.0.1:1")
	if err := dead.Health(); err == nil {
		t.Fatal("unreachable server accepted")
	} else if errors.As(err, &ae) {
		t.Fatalf("transport error mis-typed: %v", err)
	}
}

// TestWriteJSONLogsEncodeError pins the satellite fix for silently-ignored
// Encode errors: the status goes out first (no double-written headers) and
// the failure is logged.
func TestWriteJSONLogsEncodeError(t *testing.T) {
	var logged []string
	old := logf
	logf = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	defer func() { logf = old }()

	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, func() {}) // func values cannot marshal
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: must be written before the body is encoded", rec.Code)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "encode") {
		t.Fatalf("encode failure not logged exactly once: %v", logged)
	}

	// The happy path logs nothing.
	logged = nil
	writeJSON(httptest.NewRecorder(), http.StatusOK, map[string]string{"ok": "yes"})
	if len(logged) != 0 {
		t.Fatalf("spurious log on success: %v", logged)
	}
}

// TestDemandFeedValidation: the demand feed is a number from outside the
// program that goes straight into a forecaster, so the handler must refuse
// what is not a throughput — 400 with the JSON envelope — keep 404 for an
// unknown slice, and answer valid samples exactly as before.
func TestDemandFeedValidation(t *testing.T) {
	c, _ := apiEnv(t)
	snap, err := c.SubmitSlice(validBody())
	if err != nil {
		t.Fatal(err)
	}
	known := "/api/v1/slices/" + string(snap.ID) + "/demand"
	cases := []struct {
		name, path, body string
		status           int
		reply            string // exact body on 200, substring of the envelope's error otherwise
	}{
		{"valid", known, `{"mbps":12.5}`, http.StatusOK, `{"status":"recorded"}` + "\n"},
		{"zero", known, `{"mbps":0}`, http.StatusOK, `{"status":"recorded"}` + "\n"},
		{"at the bound", known, `{"mbps":1e9}`, http.StatusOK, `{"status":"recorded"}` + "\n"},
		{"negative", known, `{"mbps":-5}`, http.StatusBadRequest, "bad demand sample"},
		{"absurd", known, `{"mbps":1e300}`, http.StatusBadRequest, "bad demand sample"},
		{"just above the bound", known, `{"mbps":1000000001}`, http.StatusBadRequest, "bad demand sample"},
		{"not a number", known, `{"mbps":"NaN"}`, http.StatusBadRequest, ""},
		{"unknown slice", "/api/v1/slices/ghost/demand", `{"mbps":1}`, http.StatusNotFound, "unknown slice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(c.BaseURL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.status, raw)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("content type %q", ct)
			}
			if tc.status == http.StatusOK {
				if string(raw) != tc.reply {
					t.Fatalf("body %q, want %q", raw, tc.reply)
				}
				return
			}
			var eb errorBody
			if err := json.Unmarshal(raw, &eb); err != nil || eb.Error == "" || !strings.Contains(eb.Error, tc.reply) {
				t.Fatalf("error envelope %q (%v), want it to mention %q", raw, err, tc.reply)
			}
		})
	}
}

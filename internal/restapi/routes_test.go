package restapi

// Tests that hold by construction of the route tables (routes.go): the 405
// surface of every row, HEAD behaviour, the deleted /api/v1 rows staying
// unrouted, and the intent-plane status mapping that must not depend on
// user-chosen names.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/intent"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// TestRouteTables405ByConstruction walks every row of the three route tables
// and sends each path every method the table does not register for it: all
// must answer the JSON 405 envelope whose text names exactly the registered
// methods. HEAD is pinned too: subtree fallbacks dispatch on the exact method
// (405), and every other GET route serves HEAD through its GET handler. The
// /api/v1 twin of every single-cluster /api/v2 row must answer the mux's own
// 404 for every method — only /api/v1/gain is still served.
func TestRouteTables405ByConstruction(t *testing.T) {
	s := sim.NewSimulator(1)
	tb, err := testbed.New(testbed.Default(), s.Rand())
	if err != nil {
		t.Fatal(err)
	}
	api := NewServer(core.New(core.Config{Overbook: true, Risk: 0.9}, tb, s, monitor.NewStore(256)))
	api.AttachIntent(intent.NewManager(api.orch, s, intent.Config{}))
	_, fsrv, _ := fedEnv(t)

	// No keep-alive: hanging up is what ends the SSE handler.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	do := func(t *testing.T, method, url string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	wildcard := regexp.MustCompile(`\{[^}]*\}`)

	for _, surface := range []struct {
		name    string
		handler http.Handler
		table   []route
	}{
		{"single-cluster", api, api.routes()},
		{"intent", api, (&intentServer{}).routes()},
		{"federation", fsrv, fsrv.routes()},
	} {
		srv := httptest.NewServer(surface.handler)
		t.Cleanup(srv.Close)
		byPath := make(map[string][]route)
		for _, rt := range surface.table {
			if rt.method != "" {
				byPath[rt.pattern] = append(byPath[rt.pattern], rt)
			}
		}
		if len(byPath) == 0 {
			t.Fatalf("%s: empty route table", surface.name)
		}
		for pattern, rows := range byPath {
			var served []string
			for _, rt := range rows {
				served = append(served, rt.method)
			}
			url := srv.URL + wildcard.ReplaceAllString(pattern, "x")
			want := "restapi: use " + strings.Join(served, " or ")
			is405 := func(t *testing.T, resp *http.Response) {
				t.Helper()
				if resp.StatusCode != http.StatusMethodNotAllowed {
					t.Fatalf("status %d, want 405", resp.StatusCode)
				}
				if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
					t.Fatalf("content type %q: the JSON envelope was lost", ct)
				}
			}
			for _, method := range []string{http.MethodGet, http.MethodPost, http.MethodPut, http.MethodPatch, http.MethodDelete} {
				if slices.Contains(served, method) {
					continue
				}
				t.Run(surface.name+" "+method+" "+pattern, func(t *testing.T) {
					resp := do(t, method, url)
					is405(t, resp)
					var eb errorBody
					if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
						t.Fatalf("non-JSON 405 body: %v", err)
					}
					if eb.Error != want {
						t.Fatalf("message %q, want %q", eb.Error, want)
					}
				})
			}
			if !slices.Contains(served, http.MethodGet) {
				continue
			}
			t.Run(surface.name+" HEAD "+pattern, func(t *testing.T) {
				head := do(t, http.MethodHead, url)
				if strings.HasSuffix(pattern, "/") {
					is405(t, head)
					return
				}
				if get := do(t, http.MethodGet, url); head.StatusCode != get.StatusCode {
					t.Fatalf("HEAD status %d, GET status %d: HEAD is served by the GET handler", head.StatusCode, get.StatusCode)
				}
			})
		}
	}

	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)
	retired := make(map[string]bool)
	for _, rt := range api.routes() {
		pattern, ok := strings.CutPrefix(rt.pattern, "/api/v2/")
		if !ok || pattern == "gain" || retired[pattern] {
			continue
		}
		retired[pattern] = true
		for _, method := range []string{http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodPatch, http.MethodDelete} {
			t.Run("single-cluster "+method+" /api/v1/"+pattern, func(t *testing.T) {
				isUnrouted(t, do(t, method, srv.URL+"/api/v1/"+wildcard.ReplaceAllString(pattern, "x")))
			})
		}
	}
}

// TestIntentStatusIgnoresUserChosenNames is the regression test for the
// status-by-substring bug: a template name echoed into the error message
// must not pick the HTTP status.
func TestIntentStatusIgnoresUserChosenNames(t *testing.T) {
	_, _, base := intentEnv(t)
	body, err := json.Marshal(validTemplateBody())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, method, path string
		want               int
	}{
		{"unknown version of a name containing 'guardrail'", http.MethodPost, "/api/v2/templates/guardrail-gold/9/publish", http.StatusNotFound},
		{"invalid name containing 'not found'", http.MethodPut, "/api/v2/templates/not%20found/1", http.StatusBadRequest},
		{"unknown version", http.MethodPut, "/api/v2/templates/gold/9", http.StatusNotFound},
	} {
		req, err := http.NewRequest(tc.method, base+tc.path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: %s %s = %d, want %d", tc.name, tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}

package restapi

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

// fuzzOrch builds a simulated orchestrator (no wall-clock timers leak into
// the fuzz process) fronted by the API server.
func fuzzOrch(tb testing.TB) (*Server, *core.Orchestrator, *sim.Simulator) {
	tb.Helper()
	s := sim.NewSimulator(1)
	env, err := testbed.New(testbed.Default(), s.Rand())
	if err != nil {
		tb.Fatal(err)
	}
	orch := core.New(core.Config{Overbook: true, Risk: 0.9, PLMNLimit: 16, Audit: true}, env, s, monitor.NewStore(128))
	return NewServer(orch), orch, s
}

// FuzzV2ListQuery hardens GET /api/v2/slices filter/pagination parsing:
// whatever state/tenant/reject-code/limit/page-token combination the fuzzer
// invents, the handler must answer 200 or 400 — never 5xx, never a panic —
// with a well-formed JSON body, and a 200 page must respect the limit and
// equal, byte for byte, encoding/json over ListFiltered with the same options
// (the handler assembles it from cached fragments, see wire_identity_test.go).
// Independently of ListFiltered, every slice on a page resumed from a numeric
// token was submitted after it: its ID's sequence exceeds the token.
func FuzzV2ListQuery(f *testing.F) {
	srv, orch, s := fuzzOrch(f)
	for i := 0; i < 8; i++ {
		if _, err := orch.Submit(slice.Request{
			Tenant: "tenant-" + strconv.Itoa(i%3),
			SLA: slice.SLA{ThroughputMbps: 10, MaxLatencyMs: 50,
				Duration: time.Hour, PriceEUR: 10, Class: slice.ClassEMBB},
		}, traffic.NewConstant(4, 0, nil)); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.RunFor(15 * time.Second); err != nil {
		f.Fatal(err)
	}

	f.Add("active", "tenant-1", "", "2", "")
	f.Add("", "", "radio-capacity", "0", "3")
	f.Add("bogus", "no-such", "nope", "-7", "not-a-number")
	f.Add("installing", "", "", "99999999999999999999", "99999999999999999999")
	f.Add("", "", "", "1e3", "-1")
	f.Add("terminated", "tenant-0", "plmn-exhausted", "", "\x00\xff")
	f.Add("", "", "", "", strconv.Itoa(math.MaxInt))

	f.Fuzz(func(t *testing.T, state, tenant, rejectCode, limit, pageToken string) {
		q := url.Values{}
		q.Set("state", state)
		q.Set("tenant", tenant)
		q.Set("reject_code", rejectCode)
		q.Set("limit", limit)
		q.Set("page_token", pageToken)
		req := httptest.NewRequest(http.MethodGet, "/api/v2/slices?"+q.Encode(), nil)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d for query %q; body %s", rec.Code, q.Encode(), rec.Body.String())
		}
		if rec.Code == http.StatusOK {
			var page core.ListPage
			if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
				t.Fatalf("200 body not a ListPage: %v (%s)", err, rec.Body.String())
			}
			n, _ := strconv.Atoi(limit) // a 200 means it parsed, or was absent
			if n > 0 && len(page.Slices) > n {
				t.Fatalf("limit %d ignored: %d slices returned", n, len(page.Slices))
			}
			if after, err := strconv.Atoi(pageToken); err == nil {
				for _, sn := range page.Slices {
					seq, err := strconv.Atoi(strings.TrimPrefix(string(sn.ID), "s-"))
					if err != nil || seq <= after {
						t.Fatalf("page after token %d holds %s", after, sn.ID)
					}
				}
			}
			checkListIdentity(t, orch, core.ListOptions{
				State: state, Tenant: tenant, RejectCode: slice.RejectCode(rejectCode), Limit: n, PageToken: pageToken,
			}, rec)
		} else {
			var e map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("400 body not a JSON envelope: %s", rec.Body.String())
			}
		}
	})
}

// FuzzIdempotencyKey hardens POST /api/v2/slices Idempotency-Key handling:
// for arbitrary keys and request bodies (including unparsable ones — float
// fields are formatted verbatim, so NaN/Inf become invalid JSON), a
// duplicate submission with the same key must replay the first outcome
// (same slice ID, Idempotency-Replay header) and never crash or 5xx.
func FuzzIdempotencyKey(f *testing.F) {
	f.Add("key-1", "tenant", 10.0, 50.0, 3600.0, 25.0)
	f.Add("", "tenant", 10.0, 50.0, 3600.0, 25.0)
	f.Add("k\x00\xff", "", -5.0, 0.0, -1.0, -2.0)
	f.Add(strings.Repeat("K", 4096), "t", 1e300, 1e300, 1e300, 1e300)

	f.Fuzz(func(t *testing.T, key, tenant string, mbps, latency, durSec, price float64) {
		srv, _, _ := fuzzOrch(t)
		ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
		body := `{"tenant":` + strconv.Quote(tenant) +
			`,"throughput_mbps":` + ff(mbps) +
			`,"max_latency_ms":` + ff(latency) +
			`,"duration_seconds":` + ff(durSec) +
			`,"price_eur":` + ff(price) + `}`
		post := func() *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodPost, "/api/v2/slices", strings.NewReader(body))
			if key != "" {
				req.Header.Set("Idempotency-Key", key)
			}
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			return rec
		}
		first, second := post(), post()
		for _, rec := range []*httptest.ResponseRecorder{first, second} {
			switch rec.Code {
			case http.StatusOK, http.StatusAccepted, http.StatusBadRequest:
			default:
				t.Fatalf("status %d; body %s", rec.Code, rec.Body.String())
			}
			var parsed map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &parsed); err != nil {
				t.Fatalf("body not JSON: %v (%s)", err, rec.Body.String())
			}
		}
		if first.Code == http.StatusBadRequest || key == "" {
			return // no idempotency entry to replay
		}
		if second.Header().Get("Idempotency-Replay") != "true" {
			t.Fatalf("duplicate key %q not marked as replay (first %d, second %d)", key, first.Code, second.Code)
		}
		var a, b slice.Snapshot
		if err := json.Unmarshal(first.Body.Bytes(), &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(second.Body.Bytes(), &b); err != nil {
			t.Fatal(err)
		}
		if a.ID != b.ID {
			t.Fatalf("replay returned a different slice: %s vs %s", a.ID, b.ID)
		}
	})
}

package dashboard

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
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

func dashEnv(t *testing.T) (*Handler, *core.Orchestrator, *sim.Simulator) {
	t.Helper()
	s := sim.NewSimulator(1)
	tb, err := testbed.New(testbed.Default(), s.Rand())
	if err != nil {
		t.Fatal(err)
	}
	orch := core.New(core.Config{Overbook: true, Risk: 0.9}, tb, s, monitor.NewStore(256))
	orch.Start()
	return New(orch), orch, s
}

func render(t *testing.T, h *Handler) string {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func submit(t *testing.T, orch *core.Orchestrator, tenant string) {
	t.Helper()
	_, err := orch.Submit(sliceReq(tenant), traffic.NewConstant(10, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
}

func sliceReq(tenant string) slice.Request {
	return slice.Request{
		Tenant: tenant,
		SLA: slice.SLA{
			ThroughputMbps: 30,
			MaxLatencyMs:   20,
			Duration:       time.Hour,
			PriceEUR:       100,
			PenaltyEUR:     2,
		},
	}
}

func TestRenderEmptyDashboard(t *testing.T) {
	h, _, _ := dashEnv(t)
	body := render(t, h)
	for _, want := range []string{
		"Overbooking Dashboard",
		"multiplexing gain",
		"Radio access (MOCN eNBs)",
		"enb-1", "enb-2", "edge", "core",
		"<svg",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("dashboard missing %q", want)
		}
	}
}

func TestRenderWithSlices(t *testing.T) {
	h, orch, s := dashEnv(t)
	submit(t, orch, "acme")
	s.RunFor(15 * time.Second)
	s.RunFor(5 * time.Minute)
	body := render(t, h)
	if !strings.Contains(body, "acme") {
		t.Fatal("tenant missing from table")
	}
	if !strings.Contains(body, `class="active"`) {
		t.Fatal("active state styling missing")
	}
	if !strings.Contains(body, "001-01") {
		t.Fatal("PLMN missing")
	}
}

func TestRejectedSliceShowsReason(t *testing.T) {
	h, orch, _ := dashEnv(t)
	r := sliceReq("impossible")
	r.SLA.MaxLatencyMs = 0.01
	orch.Submit(r, nil)
	body := render(t, h)
	if !strings.Contains(body, "rejected") || !strings.Contains(body, "latency") {
		t.Fatal("rejection not rendered")
	}
	if !strings.Contains(body, "Rejection reasons") {
		t.Fatal("rejection histogram missing")
	}
}

func TestFormSubmission(t *testing.T) {
	h, orch, _ := dashEnv(t)
	srv := httptest.NewServer(h)
	defer srv.Close()
	form := url.Values{
		"tenant":       {"form-tenant"},
		"throughput":   {"25"},
		"latency":      {"30"},
		"duration_min": {"60"},
		"price":        {"80"},
		"penalty":      {"1.5"},
		"class":        {"e-health"},
	}
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.PostForm(srv.URL, form)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusSeeOther {
		t.Fatalf("status %d", resp.StatusCode)
	}
	ls := orch.List()
	if len(ls) != 1 || ls[0].Tenant != "form-tenant" || ls[0].Class != "e-health" {
		t.Fatalf("slices %+v", ls)
	}
}

// TestFormParsesLikeREST: the form takes every class spelling the REST
// body does, keeps a fractional duration in minutes whole as REST keeps
// fractional seconds, and answers 400 — submitting nothing — on an unknown
// class or a malformed number instead of reading it as eMBB or 0.
func TestFormParsesLikeREST(t *testing.T) {
	for _, tc := range []struct {
		field, value string
		status       int
		class        string
		duration     time.Duration
	}{
		{"class", "ehealth", http.StatusSeeOther, "e-health", time.Hour},
		{"class", "MMTC", http.StatusSeeOther, "mMTC", time.Hour},
		{"class", "bogus", http.StatusBadRequest, "", 0},
		{"price", "8O", http.StatusBadRequest, "", 0},
		{"latency", "", http.StatusBadRequest, "", 0},
		{"duration_min", "1.5", http.StatusSeeOther, "eMBB", 90 * time.Second},
		{"duration_min", "0.5", http.StatusSeeOther, "eMBB", 30 * time.Second},
	} {
		h, orch, _ := dashEnv(t)
		srv := httptest.NewServer(h)
		form := url.Values{
			"tenant": {"t"}, "throughput": {"25"}, "latency": {"30"},
			"duration_min": {"60"}, "price": {"80"}, "penalty": {"1"},
		}
		form.Set(tc.field, tc.value)
		client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		}}
		resp, err := client.PostForm(srv.URL, form)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		srv.Close()
		ls := orch.List()
		if resp.StatusCode != tc.status {
			t.Errorf("%s=%q: status %d, want %d", tc.field, tc.value, resp.StatusCode, tc.status)
		}
		if tc.class == "" && len(ls) != 0 {
			t.Errorf("%s=%q: submitted %+v", tc.field, tc.value, ls)
		}
		if tc.class != "" && (len(ls) != 1 || ls[0].Class != tc.class || ls[0].State == slice.StateRejected.String()) {
			t.Errorf("%s=%q: slices %+v, want one admitted %s slice", tc.field, tc.value, ls, tc.class)
		}
		if tc.class != "" && len(ls) == 1 && ls[0].SLA.Duration != tc.duration {
			t.Errorf("%s=%q: duration %v, want %v", tc.field, tc.value, ls[0].SLA.Duration, tc.duration)
		}
	}
}

func TestFormInvalidRejected(t *testing.T) {
	h, _, _ := dashEnv(t)
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.PostForm(srv.URL, url.Values{"tenant": {"x"}})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestChartContainsSeriesAfterEpochs(t *testing.T) {
	h, orch, s := dashEnv(t)
	submit(t, orch, "charted")
	s.RunFor(15 * time.Second)
	s.RunFor(30 * time.Minute)
	svg := h.gainChartSVG(640, 200)
	if !strings.Contains(svg, "polyline") {
		t.Fatal("chart has no polylines")
	}
	if orch.Store().Series("orchestrator/multiplexing_gain").WindowStats(0).N == 0 {
		t.Fatal("no gain samples recorded")
	}
}

func TestChartEmptyStoreStillValidSVG(t *testing.T) {
	h, _, _ := dashEnv(t)
	svg := h.gainChartSVG(640, 200)
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>") {
		t.Fatalf("svg malformed: %.60s", svg)
	}
}

func TestTenantNameEscaped(t *testing.T) {
	h, orch, _ := dashEnv(t)
	submit(t, orch, "<script>alert(1)</script>")
	body := render(t, h)
	if strings.Contains(body, "<script>alert(1)</script>") {
		t.Fatal("tenant name not escaped")
	}
	if !strings.Contains(body, "&lt;script&gt;") {
		t.Fatal("escaped tenant missing")
	}
}

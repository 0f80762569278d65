package restapi

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// redundantEnv builds an API over a testbed with the backup switch.
func redundantEnv(t *testing.T) (*Client, *sim.Simulator) {
	t.Helper()
	s := sim.NewSimulator(1)
	cfg := testbed.Default()
	cfg.RedundantTransport = true
	tb, err := testbed.New(cfg, s.Rand())
	if err != nil {
		t.Fatal(err)
	}
	orch := core.New(core.Config{Overbook: true, Risk: 0.9}, tb, s, monitor.NewStore(256))
	orch.Start()
	srv := httptest.NewServer(NewServer(orch))
	t.Cleanup(srv.Close)
	return NewClient(srv.URL), s
}

func TestFailAndRestoreLinkViaAPI(t *testing.T) {
	c, s := redundantEnv(t)
	snap, err := c.SubmitSlice(validBody(), "")
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(15 * time.Second)

	rep, err := c.FailLink(testbed.ENBName(0), testbed.Switch)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Restored) != 1 || rep.Restored[0] != snap.ID {
		t.Fatalf("report %+v", rep)
	}
	got, _ := c.GetSlice(snap.ID)
	if got.State != "active" {
		t.Fatalf("state %q after restoration", got.State)
	}
	if err := c.RestoreLink(testbed.ENBName(0), testbed.Switch); err != nil {
		t.Fatal(err)
	}
	// Link shows up again in topology.
	links, _ := c.Topology()
	for _, l := range links {
		if l.From == testbed.ENBName(0) && l.To == testbed.Switch && !l.Up {
			t.Fatal("link still down after restore")
		}
	}
}

func TestDegradeLinkViaAPI(t *testing.T) {
	c, s := redundantEnv(t)
	if _, err := c.SubmitSlice(validBody(), ""); err != nil {
		t.Fatal(err)
	}
	s.RunFor(15 * time.Second)
	rep, err := c.DegradeLink(testbed.ENBName(0), testbed.Switch, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Restored) != 1 {
		t.Fatalf("report %+v", rep)
	}
	_, err = c.DegradeLink(testbed.ENBName(0), testbed.Switch, -1)
	if ae := asAPIError(t, err); ae.Status != http.StatusBadRequest {
		t.Fatalf("negative capacity: %v, want a 400", ae)
	}
}

func TestLinkOpsErrors(t *testing.T) {
	c, _ := redundantEnv(t)
	// Bad op name.
	resp, err := http.Post(c.BaseURL+"/api/v2/links/a/b/teleport", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// GET not allowed.
	resp2, err := http.Get(c.BaseURL + "/api/v2/links/a/b/fail")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", resp2.StatusCode)
	}
	// Malformed path.
	resp3, err := http.Post(c.BaseURL+"/api/v2/links/only-one-part", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp3.StatusCode)
	}
}

// TestUnknownLinkIs404 pins the same status for every op on a link the
// topology does not have: degrade, whose capacity check sits beside the
// lookup, must not answer 400 where fail and restore answer 404.
func TestUnknownLinkIs404(t *testing.T) {
	c, _ := redundantEnv(t)
	for op, call := range map[string]func() error{
		"fail":    func() error { _, err := c.FailLink("ghost", "sw1"); return err },
		"restore": func() error { return c.RestoreLink("ghost", "sw1") },
		"degrade": func() error { _, err := c.DegradeLink("ghost", "sw1", 5); return err },
	} {
		if ae := asAPIError(t, call()); ae.Status != http.StatusNotFound || ae.Msg != "transport: no link ghost->sw1" {
			t.Errorf("POST /api/v2/links/ghost/sw1/%s: %v, want a 404 naming the link", op, ae)
		}
	}
}

package restapi

// Tests for the intent-plane REST surface: template CRUD and publish-time
// guardrail mapping (422), the dry-run endpoints, and the Idempotency-Key
// contract on fleet and rollout creation.

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/intent"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// intentEnv is apiEnv plus an attached intent manager; the raw server URL
// comes along for header-level assertions.
func intentEnv(t *testing.T) (*Client, *sim.Simulator, string) {
	t.Helper()
	s := sim.NewSimulator(1)
	tb, err := testbed.New(testbed.Default(), s.Rand())
	if err != nil {
		t.Fatal(err)
	}
	orch := core.New(core.Config{Overbook: true, Risk: 0.9}, tb, s, monitor.NewStore(256))
	orch.Start()
	api := NewServer(orch)
	api.AttachIntent(intent.NewManager(orch, s, intent.Config{}))
	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)
	return NewClient(srv.URL), s, srv.URL
}

func validTemplateBody() TemplateBody {
	return TemplateBody{
		Name:            "gold",
		ThroughputMbps:  20,
		MaxLatencyMs:    50,
		DurationSeconds: 3600,
		PriceEUR:        100,
		PenaltyEUR:      2,
	}
}

func TestTemplateCRUDAndPublish(t *testing.T) {
	c, _, _ := intentEnv(t)

	tpl, err := c.CreateTemplate(validTemplateBody())
	if err != nil {
		t.Fatal(err)
	}
	if tpl.Version != 1 || tpl.State != intent.TemplateDraft {
		t.Fatalf("created = v%d %s, want v1 draft", tpl.Version, tpl.State)
	}

	b := validTemplateBody()
	b.PriceEUR = 150
	if _, err := c.UpdateTemplate("gold", 1, b); err != nil {
		t.Fatalf("update draft: %v", err)
	}
	got, err := c.GetTemplate("gold", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.PriceEUR != 150 {
		t.Fatalf("update not visible: price %v", got.PriceEUR)
	}

	pub, err := c.PublishTemplate("gold", 1)
	if err != nil {
		t.Fatal(err)
	}
	if pub.State != intent.TemplatePublished {
		t.Fatalf("publish state = %s", pub.State)
	}
	// Published versions are immutable over the wire too.
	if _, err := c.UpdateTemplate("gold", 1, b); err == nil {
		t.Error("update of a published version succeeded")
	}

	list, err := c.ListTemplates()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 {
		t.Fatalf("list returned %d templates, want 1", len(list))
	}

	if _, err := c.GetTemplate("gold", 9); err == nil {
		t.Error("unknown version returned")
	} else if ae := asAPIError(t, err); ae.Status != http.StatusNotFound {
		t.Errorf("unknown version status = %d, want 404", ae.Status)
	}
}

func TestPublishGuardrailRejectionIs422(t *testing.T) {
	c, _, _ := intentEnv(t)
	b := validTemplateBody()
	b.ThroughputMbps = 5000 // over the default SLA bound
	if _, err := c.CreateTemplate(b); err != nil {
		t.Fatal(err)
	}
	_, err := c.PublishTemplate("gold", 1)
	if err == nil {
		t.Fatal("publish passed the guardrails")
	}
	if ae := asAPIError(t, err); ae.Status != http.StatusUnprocessableEntity {
		t.Fatalf("guardrail rejection status = %d (%v), want 422", ae.Status, err)
	}
	// The draft survives the failed publish for another round of edits.
	if got, err := c.GetTemplate("gold", 1); err != nil || got.State != intent.TemplateDraft {
		t.Fatalf("draft after failed publish: %+v, %v", got, err)
	}
}

func TestDryRunEndpoints(t *testing.T) {
	c, _, _ := intentEnv(t)
	if _, err := c.CreateTemplate(validTemplateBody()); err != nil {
		t.Fatal(err)
	}
	// Template dry-run works against drafts — probe before publish.
	rep, err := c.DryRunTemplate("gold", 1, "acme", "core")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible || rep.DataCenter == "" {
		t.Fatalf("draft probe = %+v, want feasible with a placement", rep)
	}

	// Raw-request dry-run mirrors the submit body.
	raw, err := c.DryRunSlice(validBody())
	if err != nil {
		t.Fatal(err)
	}
	if !raw.Feasible {
		t.Fatalf("raw probe = %+v, want feasible", raw)
	}

	// An infeasible probe reports the typed rejection, not an error.
	big := validTemplateBody()
	big.Name = "goliath"
	big.ThroughputMbps = 1e7
	if _, err := c.CreateTemplate(big); err != nil {
		t.Fatal(err)
	}
	inf, err := c.DryRunTemplate("goliath", 1, "acme", "core")
	if err != nil {
		t.Fatal(err)
	}
	if inf.Feasible || inf.RejectCode == "" {
		t.Fatalf("oversized probe = %+v, want typed rejection", inf)
	}
}

func TestFleetInstantiationIdempotency(t *testing.T) {
	c, _, url := intentEnv(t)
	if _, err := c.CreateTemplate(validTemplateBody()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PublishTemplate("gold", 1); err != nil {
		t.Fatal(err)
	}

	body := InstantiateBody{Template: "gold", Version: 1, Tenants: []string{"a", "b"}, Regions: []string{"core"}}
	first, err := c.Instantiate(body, "fleet-key-1")
	if err != nil {
		t.Fatal(err)
	}
	if first.Admitted == 0 {
		t.Fatalf("fleet admitted nothing: %+v", first)
	}

	// Same key replays the same fleet — no second instantiation.
	dup, err := c.Instantiate(body, "fleet-key-1")
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID != first.ID {
		t.Fatalf("duplicate created fleet %s, want replay of %s", dup.ID, first.ID)
	}
	fleets, err := c.ListFleets()
	if err != nil {
		t.Fatal(err)
	}
	if len(fleets) != 1 {
		t.Fatalf("%d fleets exist after duplicate submit, want 1", len(fleets))
	}

	// Header-level: the duplicate carries Idempotency-Replay: true.
	req, _ := http.NewRequest(http.MethodPost, url+"/api/v2/fleets", jsonBody(t, body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", "fleet-key-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("Idempotency-Replay") != "true" {
		t.Error("duplicate missing Idempotency-Replay header")
	}

	// Rollout creation honours the same contract.
	ro1, err := c.StartRollout(RolloutBody{Fleet: first.ID, ToVersion: 1}, "ro-key")
	if err == nil {
		// ToVersion == current version is invalid; expect an error instead.
		t.Fatalf("rollout to current version accepted: %+v", ro1)
	}
	b2 := validTemplateBody()
	b2.ProvisionFraction = 0.8
	if _, err := c.CreateTemplate(b2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PublishTemplate("gold", 2); err != nil {
		t.Fatal(err)
	}
	ro1, err = c.StartRollout(RolloutBody{Fleet: first.ID, ToVersion: 2, WindowSeconds: 600}, "ro-key-2")
	if err != nil {
		t.Fatal(err)
	}
	dupRo, err := c.StartRollout(RolloutBody{Fleet: first.ID, ToVersion: 2, WindowSeconds: 600}, "ro-key-2")
	if err != nil {
		t.Fatal(err)
	}
	if dupRo.ID != ro1.ID {
		t.Fatalf("duplicate rollout %s, want replay of %s", dupRo.ID, ro1.ID)
	}

	if _, err := c.GetFleet("fl-404"); err == nil {
		t.Error("unknown fleet returned")
	}
	if _, err := c.GetRollout("ro-404"); err == nil {
		t.Error("unknown rollout returned")
	}
}

// TestRolloutOverRESTCompletes drives a full promote through the API with
// the simulated clock, proving the rollout decision is visible over the
// wire.
func TestRolloutOverRESTCompletes(t *testing.T) {
	c, s, _ := intentEnv(t)
	if _, err := c.CreateTemplate(validTemplateBody()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PublishTemplate("gold", 1); err != nil {
		t.Fatal(err)
	}
	b2 := validTemplateBody()
	b2.ProvisionFraction = 0.8
	if _, err := c.CreateTemplate(b2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PublishTemplate("gold", 2); err != nil {
		t.Fatal(err)
	}
	fleet, err := c.Instantiate(InstantiateBody{
		Template: "gold", Version: 1,
		Tenants: []string{"a", "b", "c", "d"}, Regions: []string{"core"},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	ro, err := c.StartRollout(RolloutBody{Fleet: fleet.ID, ToVersion: 2, CanaryFraction: 0.25, WindowSeconds: 300}, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(6 * 60 * 1e9); err != nil { // 6 minutes
		t.Fatal(err)
	}
	got, err := c.GetRollout(ro.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Phase != intent.RolloutPromoted {
		t.Fatalf("phase over REST = %s, want promoted", got.Phase)
	}
	rollouts, err := c.ListRollouts()
	if err != nil || len(rollouts) != 1 {
		t.Fatalf("list rollouts: %v, n=%d", err, len(rollouts))
	}
}

func asAPIError(t *testing.T, err error) *apiError {
	t.Helper()
	var ae *apiError
	if !errors.As(err, &ae) {
		t.Fatalf("error %v is not an apiError", err)
	}
	return ae
}

// TestUnsetTimesOmittedOnTheWire: a draft carries no published_at and a
// running rollout no decided_at — the fields are tagged omitzero, which the
// encoder honours from Go 1.24 on, and older encoders print the zero time
// "0001-01-01T00:00:00Z" instead.
func TestUnsetTimesOmittedOnTheWire(t *testing.T) {
	c, _, base := intentEnv(t)
	fields := func(path string) map[string]json.RawMessage {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %v", path, resp.StatusCode, err)
		}
		return m
	}

	if _, err := c.CreateTemplate(validTemplateBody()); err != nil {
		t.Fatal(err)
	}
	if raw, ok := fields("/api/v2/templates/gold/1")["published_at"]; ok {
		t.Errorf("draft carries published_at %s", raw)
	}
	if _, err := c.PublishTemplate("gold", 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields("/api/v2/templates/gold/1")["published_at"]; !ok {
		t.Error("published template carries no published_at")
	}

	fleet, err := c.Instantiate(InstantiateBody{Template: "gold", Version: 1, Tenants: []string{"a", "b"}, Regions: []string{"core"}}, "")
	if err != nil {
		t.Fatal(err)
	}
	b2 := validTemplateBody()
	b2.ProvisionFraction = 0.8
	if _, err := c.CreateTemplate(b2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PublishTemplate("gold", 2); err != nil {
		t.Fatal(err)
	}
	ro, err := c.StartRollout(RolloutBody{Fleet: fleet.ID, ToVersion: 2, WindowSeconds: 600}, "")
	if err != nil {
		t.Fatal(err)
	}
	m := fields("/api/v2/rollouts/" + ro.ID)
	if string(m["phase"]) != `"`+string(intent.RolloutCanary)+`"` {
		t.Fatalf("rollout phase %s, want a running canary", m["phase"])
	}
	if raw, ok := m["decided_at"]; ok {
		t.Errorf("running rollout carries decided_at %s", raw)
	}
}

package intent

// Unit tests for the template store: the draft→published lifecycle,
// guardrail evaluation at publish time (sla-bounds before provision-bounds,
// first failure aborts), version allocation, and published immutability.

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func goldTemplate() Template {
	return Template{
		Name:           "gold",
		ThroughputMbps: 40,
		MaxLatencyMs:   50,
		Duration:       6 * time.Hour,
		PriceEUR:       200,
		PenaltyEUR:     2,
	}
}

func TestStoreLifecycle(t *testing.T) {
	st := NewStore()
	now := time.Unix(1000, 0)

	d1, err := st.CreateDraft(goldTemplate(), now)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Version != 1 || d1.State != TemplateDraft {
		t.Fatalf("first draft = v%d %s, want v1 draft", d1.Version, d1.State)
	}
	if d1.ProvisionFraction != 1 {
		t.Fatalf("default provision fraction = %v, want 1", d1.ProvisionFraction)
	}

	// Drafts are mutable.
	d1.PriceEUR = 250
	if _, err := st.UpdateDraft(d1); err != nil {
		t.Fatalf("update draft: %v", err)
	}

	pub, err := st.Publish("gold", 1, now.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if pub.State != TemplatePublished || pub.PublishedAt.IsZero() {
		t.Fatalf("published = %+v", pub)
	}
	if pub.PriceEUR != 250 {
		t.Fatalf("publish lost the draft update: price %v", pub.PriceEUR)
	}

	// Publish is idempotent; published versions are immutable.
	if _, err := st.Publish("gold", 1, now.Add(2*time.Minute)); err != nil {
		t.Fatalf("re-publish: %v", err)
	}
	pub.PriceEUR = 1
	if _, err := st.UpdateDraft(pub); err == nil {
		t.Fatal("update of a published version succeeded")
	}

	// A second draft gets the next version.
	d2, err := st.CreateDraft(goldTemplate(), now.Add(3*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if d2.Version != 2 {
		t.Fatalf("second draft version = %d, want 2", d2.Version)
	}
	if _, err := st.Publish("gold", 2, now.Add(4*time.Minute)); err != nil {
		t.Fatal(err)
	}
	if got := st.List(); len(got) != 2 {
		t.Fatalf("list returned %d templates, want 2", len(got))
	}
}

func TestGuardrailsEvaluatedInOrderFirstFailureAborts(t *testing.T) {
	st := NewStore()
	now := time.Unix(1000, 0)
	tpl := goldTemplate()
	tpl.ThroughputMbps = 5000    // over the SLA bound
	tpl.ProvisionFraction = 0.01 // and under the provision bound
	d, err := st.CreateDraft(tpl, now)
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.Publish("gold", 1, now)
	if !errors.Is(err, ErrGuardrail) || !strings.Contains(err.Error(), "guardrail sla-bounds:") || strings.Contains(err.Error(), "provision-bounds") {
		t.Fatalf("publish of a template failing both guardrails: %v, want sla-bounds alone", err)
	}
	// The failed publish leaves the version a draft.
	if got, _ := st.Get("gold", 1); got.State != TemplateDraft {
		t.Errorf("failed publish left state %s, want draft", got.State)
	}
	// Once the contract is in bounds, the provision fraction is what fails.
	d.ThroughputMbps = 40
	if _, err := st.UpdateDraft(d); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Publish("gold", 1, now); !errors.Is(err, ErrGuardrail) || !strings.Contains(err.Error(), "guardrail provision-bounds:") {
		t.Fatalf("publish with only the provision fraction out of bounds: %v, want provision-bounds", err)
	}
}

// TestDefaultGuardrails: the fixed publish check (sla-bounds, then
// provision-bounds) passes the gold template and rejects each bound it holds.
func TestDefaultGuardrails(t *testing.T) {
	st := NewStore()
	now := time.Unix(1000, 0)
	cases := []struct {
		name   string
		mutate func(*Template)
		reject bool
	}{
		{"valid", func(*Template) {}, false},
		{"throughput-over-sla-bound", func(tp *Template) { tp.ThroughputMbps = 5000 }, true},
		{"latency-under-floor", func(tp *Template) { tp.MaxLatencyMs = 0.1 }, true},
		{"duration-over-cap", func(tp *Template) { tp.Duration = 60 * 24 * time.Hour }, true},
		{"provision-under-floor", func(tp *Template) { tp.ProvisionFraction = 0.01 }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tpl := goldTemplate()
			tpl.Name = "g-" + tc.name
			tc.mutate(&tpl)
			if _, err := st.CreateDraft(tpl, now); err != nil {
				t.Fatalf("draft: %v", err)
			}
			_, err := st.Publish(tpl.Name, 1, now)
			if tc.reject && err == nil {
				t.Error("publish passed, want guardrail rejection")
			}
			if !tc.reject && err != nil {
				t.Errorf("publish rejected: %v", err)
			}
		})
	}
}

func TestTemplateValidateAndRequest(t *testing.T) {
	if err := (Template{}).Validate(); err == nil {
		t.Error("empty template validated")
	}
	tpl := goldTemplate()
	tpl.ProvisionFraction = 0.5
	if got := tpl.TargetMbps(); got != 20 {
		t.Errorf("TargetMbps = %v, want 20 (fraction applied)", got)
	}
	req := tpl.Request("acme", RegionEdge)
	if req.Tenant != "acme" || !req.SLA.EdgeCompute {
		t.Errorf("edge request = %+v, want tenant acme with EdgeCompute", req)
	}
	if req.SLA.ThroughputMbps != tpl.ThroughputMbps {
		t.Errorf("request contracts %v Mbps, want the full template throughput %v (the fraction is a provisioning cap, not the SLA)",
			req.SLA.ThroughputMbps, tpl.ThroughputMbps)
	}
	if core := tpl.Request("acme", RegionCore); core.SLA.EdgeCompute {
		t.Error("core request asked for edge compute")
	}
	if _, err := ParseRegion("edge"); err != nil {
		t.Error(err)
	}
	if _, err := ParseRegion("moon"); err == nil {
		t.Error("ParseRegion accepted an unknown region")
	}
}

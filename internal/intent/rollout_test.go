package intent

// Manager-level tests: quota enforcement at instantiation, dry-run against
// drafts, and the canary rollout state machine driven to both verdicts on a
// simulated clock (canaries starved below their demand; C9 in
// internal/scenario drives the same machine inside a churning workload).

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

func managerEnv(t *testing.T, quotas Quotas) (*Manager, *core.Orchestrator, *sim.Simulator) {
	t.Helper()
	s := sim.NewSimulator(1)
	tb, err := testbed.New(testbed.Default(), s.Rand())
	if err != nil {
		t.Fatal(err)
	}
	// Audited: the auditor checks the orchestrator's books, and the intent
	// tier folds its transitions into a fresh tier that must stay equal.
	orch := core.New(core.Config{Overbook: true, Risk: 0.9, Audit: true}, tb, s, monitor.NewStore(256))
	t.Cleanup(func() {
		for _, v := range orch.Auditor().Violations() {
			t.Errorf("invariant violated: %s", v)
		}
	})
	m := NewManager(orch, s, Config{Quotas: quotas})
	return m, orch, s
}

func publishGold(t *testing.T, m *Manager, fracs ...float64) {
	t.Helper()
	for _, frac := range fracs {
		tpl := goldTemplate()
		tpl.ThroughputMbps = 10
		tpl.ProvisionFraction = frac
		d, err := m.Store().CreateDraft(tpl, time.Unix(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Store().Publish(d.Name, d.Version, time.Unix(0, 0)); err != nil {
			t.Fatal(err)
		}
	}
}

func constDemand(string, Region, Template) traffic.Demand {
	return traffic.NewConstant(5, 0, nil)
}

func TestInstantiateEnforcesQuotas(t *testing.T) {
	m, _, _ := managerEnv(t, Quotas{MaxSlicesPerTenant: 2})
	publishGold(t, m, 1.0)
	// 3 regions... only 2 exist; 1 tenant × 2 regions = 2 per tenant: OK.
	if _, err := m.Instantiate("gold", 1, []string{"acme"}, []Region{RegionCore, RegionEdge}, core.BatchFCFS, constDemand); err != nil {
		t.Fatalf("within quota: %v", err)
	}
	// A second fleet would put acme at 4: quota must reject before any
	// submission happens.
	_, err := m.Instantiate("gold", 1, []string{"acme"}, []Region{RegionCore, RegionEdge}, core.BatchFCFS, constDemand)
	if err == nil || !strings.Contains(err.Error(), "quota") {
		t.Fatalf("over per-tenant quota: err = %v, want quota rejection", err)
	}

	m2, _, _ := managerEnv(t, Quotas{MaxSlicesPerRegion: 1})
	publishGold(t, m2, 1.0)
	_, err = m2.Instantiate("gold", 1, []string{"a", "b"}, []Region{RegionCore}, core.BatchFCFS, constDemand)
	if err == nil || !strings.Contains(err.Error(), "quota") {
		t.Fatalf("over per-region quota: err = %v, want quota rejection", err)
	}
}

func TestInstantiateRequiresPublished(t *testing.T) {
	m, _, _ := managerEnv(t, Quotas{})
	if _, err := m.Store().CreateDraft(goldTemplate(), time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Instantiate("gold", 1, []string{"acme"}, []Region{RegionCore}, core.BatchFCFS, constDemand); err == nil {
		t.Fatal("instantiated from a draft")
	}
	// Dry-run, by contrast, is allowed against drafts: that is what it is
	// for — probing before publish.
	rep, err := m.DryRun("gold", 1, "acme", RegionCore)
	if err != nil {
		t.Fatalf("dry-run against draft: %v", err)
	}
	if !rep.Feasible {
		t.Fatalf("draft probe infeasible: %+v", rep)
	}
}

func TestRolloutPromotesWhenCanaryQuiet(t *testing.T) {
	m, _, s := managerEnv(t, Quotas{})
	publishGold(t, m, 1.0, 0.8)
	f, err := m.Instantiate("gold", 1, []string{"a", "b", "c", "d"}, []Region{RegionCore}, core.BatchFCFS, constDemand)
	if err != nil {
		t.Fatal(err)
	}
	if f.Admitted == 0 {
		t.Fatalf("no members admitted: %+v", f)
	}

	ro, err := m.StartRollout(RolloutConfig{Fleet: f.ID, ToVersion: 2, CanaryFraction: 0.25, Window: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if ro.Phase != RolloutCanary || len(ro.Canary) == 0 {
		t.Fatalf("rollout start = %+v", ro)
	}

	// A second rollout on the same fleet must be refused while one is in
	// flight, as must a rollout to the fleet's current version.
	if _, err := m.StartRollout(RolloutConfig{Fleet: f.ID, ToVersion: 2}); err == nil {
		t.Error("second in-flight rollout accepted")
	}

	if err := s.RunFor(11 * time.Minute); err != nil {
		t.Fatal(err)
	}
	got, _ := m.GetRollout(ro.ID)
	if got.Phase != RolloutPromoted {
		t.Fatalf("quiet canary: phase = %s (violations=%d), want promoted", got.Phase, got.Violations)
	}
	if fl, _ := m.GetFleet(f.ID); fl.Version != 2 {
		t.Errorf("fleet version = %d, want 2 after promotion", fl.Version)
	}
	if _, err := m.StartRollout(RolloutConfig{Fleet: f.ID, ToVersion: 2}); err == nil {
		t.Error("rollout to the current version accepted")
	}
}

// starvedDemand offers 9.5 Mbps to every member: served in full under the
// v1 template (10 Mbps cap), starved under v2 (provision 0.5, a 5 Mbps cap),
// so every canary epoch after the rollout starts is charged a violation.
func starvedDemand(string, Region, Template) traffic.Demand {
	return traffic.NewConstant(9.5, 0, nil)
}

// starvedRollout instantiates a 4-member starved fleet and starts a 50%
// canary rollout to v2 with a 10-minute window.
func starvedRollout(t *testing.T) (*Manager, *core.Orchestrator, *sim.Simulator, Rollout) {
	t.Helper()
	m, orch, s := managerEnv(t, Quotas{})
	orch.Start()
	t.Cleanup(orch.Stop)
	publishGold(t, m, 1.0, 0.5)
	f, err := m.Instantiate("gold", 1, []string{"a", "b", "c", "d"}, []Region{RegionCore}, core.BatchFCFS, starvedDemand)
	if err != nil {
		t.Fatal(err)
	}
	if f.Admitted != 4 {
		t.Fatalf("want 4 admitted members, got %+v", f)
	}
	ro, err := m.StartRollout(RolloutConfig{Fleet: f.ID, ToVersion: 2, CanaryFraction: 0.5, Window: 10 * time.Minute, MaxViolations: 2})
	if err != nil {
		t.Fatal(err)
	}
	return m, orch, s, ro
}

func TestRolloutRollsBackOnCanaryViolations(t *testing.T) {
	m, orch, s, ro := starvedRollout(t)
	// A slice outside the fleet, starved the same way: its violations must
	// not count against the canary.
	tpl := goldTemplate()
	tpl.ThroughputMbps = 10
	outsider, err := orch.Submit(tpl.Request("outsider", RegionCore), traffic.NewConstant(9.5, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orch.SetProvisionCap(outsider.ID(), 5); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(11 * time.Minute); err != nil {
		t.Fatal(err)
	}

	got, _ := m.GetRollout(ro.ID)
	if got.Phase != RolloutRolledBack {
		t.Fatalf("phase = %s (violations=%d), want rolled-back over max 2", got.Phase, got.Violations)
	}
	canary := 0
	for _, id := range ro.Canary {
		sl, _ := orch.Get(id)
		canary += sl.Accounting().ViolationEpochs
	}
	if got.Violations != canary {
		t.Errorf("counted %d canary violations, want the canaries' %d", got.Violations, canary)
	}
	if n := outsider.Accounting().ViolationEpochs; n == 0 {
		t.Error("the outsider was never starved: the non-canary check proves nothing")
	}
	if fl, _ := m.GetFleet(ro.Fleet); fl.Version != 1 {
		t.Errorf("fleet version = %d, want 1 (rollback keeps the old version)", fl.Version)
	}

	// The fleet is free for another rollout after the rollback.
	if _, err := m.StartRollout(RolloutConfig{Fleet: ro.Fleet, ToVersion: 2}); err != nil {
		t.Errorf("rollout after rollback refused: %v", err)
	}
}

// TestCanaryDecisionSurvivesRingLap floods the bus with unrelated events
// near the end of the window, lapping the default replay ring: the canary
// violations are counted from the slices, so the decision still sees them.
func TestCanaryDecisionSurvivesRingLap(t *testing.T) {
	m, orch, s, ro := starvedRollout(t)
	s.After(9*time.Minute+30*time.Second, "flood", func() {
		for i := 0; i < 1100; i++ {
			orch.Events().Publish(core.Event{Time: s.Now(), Type: EventFleet, Detail: "noise"})
		}
	})
	if err := s.RunFor(11 * time.Minute); err != nil {
		t.Fatal(err)
	}
	got, _ := m.GetRollout(ro.ID)
	if got.Phase != RolloutRolledBack || got.Violations != 18 {
		t.Fatalf("phase = %s with %d canary violations, want rolled-back with 18", got.Phase, got.Violations)
	}
}

func TestStartRolloutValidation(t *testing.T) {
	m, _, _ := managerEnv(t, Quotas{})
	publishGold(t, m, 1.0)
	if _, err := m.StartRollout(RolloutConfig{Fleet: "fl-404", ToVersion: 1}); err == nil {
		t.Error("rollout on unknown fleet accepted")
	}
	f, err := m.Instantiate("gold", 1, []string{"a"}, []Region{RegionCore}, core.BatchFCFS, constDemand)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.StartRollout(RolloutConfig{Fleet: f.ID, ToVersion: 9}); err == nil {
		t.Error("rollout to unpublished version accepted")
	}
}

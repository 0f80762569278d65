package scenario

import (
	"reflect"
	"testing"

	"repro/internal/federation"
	"repro/internal/intent"
	"repro/internal/invariant"
)

// The federation and intent tiers' fixed-seed goldens. TestFedChaosDeterminism
// and TestRolloutChaosShardEquivalence prove a run reproduces itself; these
// pin what it reproduces, so a refactor of either tier that claims "same
// outcomes" is checked against numbers rather than a hand diff.

// TestFedChaosGoldens pins C7 and C8 at seed 42: the federation-tier
// placement counters, the offered load and the merged audit counts.
func TestFedChaosGoldens(t *testing.T) {
	want := map[string]struct {
		offered int
		stats   federation.Stats
		audit   invariant.Stats
	}{
		"c7": {80, federation.Stats{SpansInstalled: 34, SpansRejected: 46, SpansCrossCluster: 13, SpansLive: 15,
			Barriers: 239, RejectReasons: map[string]int{"radio-capacity": 46}},
			invariant.Stats{Sweeps: 959, Events: 227}},
		"c8": {74, federation.Stats{SpansInstalled: 21, SpansRejected: 53, SpansCrossCluster: 8, SpansLive: 10,
			Barriers: 239, RejectReasons: map[string]int{"radio-capacity": 53}},
			invariant.Stats{Sweeps: 808, Events: 128}},
	}
	for _, name := range FedChaosNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := FedChaosScenario(name, 42)
			if err != nil {
				t.Fatal(err)
			}
			w := want[name]
			if res.Offered != w.offered {
				t.Errorf("offered %d, want %d", res.Offered, w.offered)
			}
			if !reflect.DeepEqual(res.Stats, w.stats) {
				t.Errorf("stats %+v\nwant  %+v", res.Stats, w.stats)
			}
			if res.AuditStats != w.audit {
				t.Errorf("audit %+v, want %+v", res.AuditStats, w.audit)
			}
		})
	}
}

// TestRolloutChaosGolden pins C9 at its canonical seed 42: both verdicts,
// the canary violation counts that drove them, the fleet, the background
// workload's violation epochs and reconfigurations, and the audit counts.
func TestRolloutChaosGolden(t *testing.T) {
	res := runC9(t, 0)
	if f := res.Fleet; f.ID != "fl-1" || f.Version != 2 || f.Admitted != 3 || f.Rejected != 5 {
		t.Errorf("fleet %s v%d %d/%d, want fl-1 v2 3/5", f.ID, f.Version, f.Admitted, f.Rejected)
	}
	for _, c := range []struct {
		got        intent.Rollout
		id         string
		phase      intent.RolloutPhase
		violations int
	}{
		{res.Promoted, "ro-1", intent.RolloutPromoted, 0},
		{res.RolledBack, "ro-2", intent.RolloutRolledBack, 59},
	} {
		if c.got.ID != c.id || c.got.Phase != c.phase || c.got.Violations != c.violations {
			t.Errorf("rollout %s %s with %d canary violations, want %s %s with %d",
				c.got.ID, c.got.Phase, c.got.Violations, c.id, c.phase, c.violations)
		}
	}
	if g := res.Result.Gain; g.ViolationEpochs != 351 || g.Reconfigurations != 41 {
		t.Errorf("violation epochs / reconfigs %d / %d, want 351 / 41", g.ViolationEpochs, g.Reconfigurations)
	}
	if want := (invariant.Stats{Sweeps: 240, Events: 531}); res.AuditStats != want {
		t.Errorf("audit %+v, want %+v", res.AuditStats, want)
	}
}

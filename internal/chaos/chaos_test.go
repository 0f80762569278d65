package chaos

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/federation"
	"repro/internal/forecast"
	"repro/internal/intent"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

func chaosEnv(t *testing.T, seed int64) *Env {
	t.Helper()
	s := sim.NewSimulator(seed)
	tb, err := testbed.New(testbed.Config{MECHosts: 1, MECHostCPUs: 16, RedundantTransport: true}, s.Rand())
	if err != nil {
		t.Fatal(err)
	}
	o := core.New(core.Config{Audit: true, PLMNLimit: 16}, tb, s, monitor.NewStore(256))
	return &Env{Sim: s, Orch: o, TB: tb}
}

func submitN(t *testing.T, env *Env, n int) []slice.ID {
	t.Helper()
	var ids []slice.ID
	for i := 0; i < n; i++ {
		sl, err := env.Orch.Submit(slice.Request{
			Tenant: "t",
			SLA: slice.SLA{ThroughputMbps: 10, MaxLatencyMs: 50,
				Duration: time.Hour, PriceEUR: 10, Class: slice.ClassEMBB},
		}, traffic.NewConstant(4, 0, nil))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sl.ID())
	}
	if err := env.Sim.RunFor(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestTimelineFiresInOrder: ops fire at their offsets, in offset order,
// ties in declaration order, Every's copies carry #i names, and the fired
// log records each op's offset and name.
func TestTimelineFiresInOrder(t *testing.T) {
	env := chaosEnv(t, 1)
	nop := func(at time.Duration, name string) Op {
		return Op{At: at, Name: name, Kind: ClearFaults, Target: "cloud"}
	}
	prog := []Op{nop(2*time.Minute, "b"), nop(time.Minute, "a"), nop(5*time.Minute, "tie-1")}
	prog = append(prog, Every(3*time.Minute, time.Minute, 2, nop(0, "c"))...)
	prog = append(prog, nop(5*time.Minute, "tie-2"))
	Install(env, 1, prog)
	if err := env.Sim.RunFor(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	want := []FiredStep{
		{time.Minute, "a"}, {2 * time.Minute, "b"}, {3 * time.Minute, "c#1"},
		{4 * time.Minute, "c#2"}, {5 * time.Minute, "tie-1"}, {5 * time.Minute, "tie-2"},
	}
	if got := env.Log(); !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestPickFractionDeterministic: same seed, same picks; picks preserve
// submission order and have the right size.
func TestPickFractionDeterministic(t *testing.T) {
	ids := []slice.ID{"s-1", "s-2", "s-3", "s-4", "s-5", "s-6", "s-7", "s-8"}
	run := func(seed int64) []slice.ID {
		env := &Env{rng: rand.New(rand.NewSource(seed))}
		return pickFraction(env, ids, 0.5)
	}
	a, b := run(42), run(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	if len(a) != 4 {
		t.Fatalf("picked %d of 8 at frac 0.5, want 4", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i-1] >= a[i] {
			t.Fatalf("picks out of submission order: %v", a)
		}
	}
	if c := run(43); reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds produced identical picks %v", a)
	}
}

// TestChurnAndFaultActions runs a program of burst-delete, link failure,
// cell fade, MEC brownout and an injected commit fault against a live
// orchestrator and leaves the invariants clean.
func TestChurnAndFaultActions(t *testing.T) {
	env := chaosEnv(t, 7)
	submitted := 0
	env.Submit = func() {
		submitted++
		_, _ = env.Orch.Submit(slice.Request{
			Tenant: "burst",
			SLA: slice.SLA{ThroughputMbps: 10, MaxLatencyMs: 50,
				Duration: time.Hour, PriceEUR: 10, Class: slice.ClassEMBB},
		}, traffic.NewConstant(4, 0, nil))
	}
	submitN(t, env, 6)

	Install(env, 7, []Op{
		{At: time.Minute, Name: "delete-half", Kind: MassDelete, Frac: 0.5},
		{At: 2 * time.Minute, Name: "fail-link", Kind: LinkFail, From: testbed.ENBName(0), To: testbed.Switch},
		{At: 3 * time.Minute, Name: "restore-link", Kind: LinkRestore, From: testbed.ENBName(0), To: testbed.Switch},
		{At: 4 * time.Minute, Name: "fade", Kind: CellFade, Index: 0, Level: 6},
		{At: 5 * time.Minute, Name: "arm-commit-fault", Kind: InjectFault, Target: "cloud", Stage: ctrl.FaultCommit, N: 1},
		{At: 6 * time.Minute, Name: "burst", Kind: BurstSubmit, N: 3},
		{At: 7 * time.Minute, Name: "clear", Kind: ClearFaults, Target: "cloud"},
		{At: 8 * time.Minute, Name: "brownout", Kind: MECCapacity, Index: 0, Level: 1},
	})
	if err := env.Sim.RunFor(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	env.Orch.RunEpoch() // audit sweep over the post-chaos state

	if submitted != 3 {
		t.Fatalf("burst submitted %d, want 3", submitted)
	}
	if err := env.Orch.Auditor().Err(); err != nil {
		t.Fatal(err)
	}
	// The armed commit fault rejected the first burst submission with the
	// typed code.
	g := env.Orch.Gain()
	if g.RejectReasons["fault-injected"] == 0 {
		t.Fatalf("no fault-injected rejection recorded: %v", g.RejectReasons)
	}
}

// TestFlashCrowdRaisesDemand: the overlay shows up in the next epoch's
// sampled demand and decays after its duration.
func TestFlashCrowdRaisesDemand(t *testing.T) {
	env := chaosEnv(t, 3)
	ids := submitN(t, env, 1)
	Install(env, 3, []Op{{At: 30 * time.Second, Name: "crowd", Kind: FlashCrowd, Frac: 1, Mbps: 100, Dur: 2 * time.Minute}})
	if err := env.Sim.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	env.Orch.RunEpoch()
	sl, _ := env.Orch.Get(ids[0])
	if got := sl.Snapshot().Accounting.DemandMbps; got != 104 {
		t.Fatalf("spiked demand %v, want 104", got)
	}
	if err := env.Sim.RunFor(3 * time.Minute); err != nil {
		t.Fatal(err)
	}
	env.Orch.RunEpoch()
	if got := sl.Snapshot().Accounting.DemandMbps; got != 4 {
		t.Fatalf("post-crowd demand %v, want 4", got)
	}
	if err := env.Orch.Auditor().Err(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterOps: partition, heal and fail reach the federation through
// Apply, and are no-ops on an environment without one.
func TestClusterOps(t *testing.T) {
	s := sim.NewSimulator(5)
	fed := federation.New(federation.Config{Audit: true}, s)
	for _, name := range []string{"east", "west"} {
		if _, err := fed.Join(federation.ClusterConfig{Name: name, Orchestrator: core.Config{Audit: true}}); err != nil {
			t.Fatal(err)
		}
	}
	env := &Env{Sim: s, Fed: fed}
	state := func() map[string][2]bool {
		out := map[string][2]bool{}
		for _, c := range fed.ClusterInfos() {
			out[c.Name] = [2]bool{c.Partitioned, c.Failed}
		}
		return out
	}
	for _, step := range []struct {
		op   Op
		want map[string][2]bool
	}{
		{Op{Kind: PartitionCluster, Target: "west"}, map[string][2]bool{"east": {}, "west": {true, false}}},
		{Op{Kind: HealCluster, Target: "west"}, map[string][2]bool{"east": {}, "west": {}}},
		{Op{Kind: FailCluster, Target: "east"}, map[string][2]bool{"east": {false, true}, "west": {}}},
	} {
		Apply(env, step.op)
		if got := state(); !reflect.DeepEqual(got, step.want) {
			t.Fatalf("after kind %d on %s: (partitioned, failed) %v, want %v", step.op.Kind, step.op.Target, got, step.want)
		}
	}
	if err := fed.Auditor().Err(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []Kind{PartitionCluster, HealCluster, FailCluster} {
		Apply(&Env{Sim: s}, Op{Kind: k, Target: "west"})
	}
}

// TestIntentOps: publish, instantiate and rollout reach the intent plane
// through Apply; a rollout names its fleet by instantiation index, and an
// index with no fleet behind it starts nothing.
func TestIntentOps(t *testing.T) {
	env := chaosEnv(t, 9)
	env.Intent = intent.NewManager(env.Orch, env.Sim, intent.Config{})
	tpl := intent.Template{Name: "gold", ThroughputMbps: 10, MaxLatencyMs: 50, Duration: time.Hour, PriceEUR: 50}
	tighter := tpl
	tighter.ProvisionFraction = 0.8
	rollout := intent.RolloutConfig{ToVersion: 2, CanaryFraction: 0.5, Window: time.Minute}
	for _, op := range []Op{
		{Kind: Publish, Template: tpl},
		{Kind: Publish, Template: tighter},
		{Kind: Rollout, Index: 0, Rollout: rollout}, // no fleet yet
		{Kind: Instantiate, Template: intent.Template{Name: "gold", Version: 1},
			Tenants: []string{"a", "b"}, Regions: []intent.Region{intent.RegionCore}, Policy: core.BatchDensity, Mbps: 4},
		{Kind: Rollout, Index: 1, Rollout: rollout}, // no second fleet
		{Kind: Rollout, Index: 0, Rollout: rollout},
	} {
		Apply(env, op)
	}
	for v := 1; v <= 2; v++ {
		if got, ok := env.Intent.Store().Get("gold", v); !ok || got.State != intent.TemplatePublished {
			t.Fatalf("gold v%d: %+v (found %v), want published", v, got, ok)
		}
	}
	fleets := env.Intent.Fleets()
	if len(fleets) != 1 || fleets[0].ID != "fl-1" || len(fleets[0].Members) != 2 || fleets[0].Admitted == 0 {
		t.Fatalf("fleets %+v, want fl-1 with 2 members, some admitted", fleets)
	}
	ros := env.Intent.Rollouts()
	if len(ros) != 1 || ros[0].Fleet != "fl-1" || ros[0].ToVersion != 2 || ros[0].Phase != intent.RolloutCanary {
		t.Fatalf("rollouts %+v, want one canary on fl-1 to v2", ros)
	}
	if err := env.Orch.Auditor().Err(); err != nil {
		t.Fatal(err)
	}
}

// TestApplyPanicsOnUnknownKind: a zero or unknown Kind is a malformed
// program, never a silent no-op.
func TestApplyPanicsOnUnknownKind(t *testing.T) {
	for _, k := range []Kind{0, Rollout + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Apply with kind %d did not panic", k)
				}
			}()
			Apply(&Env{}, Op{Name: "bad", Kind: k})
		}()
	}
}

// TestMispredictForecaster: the decorator corrupts exactly every k-th
// forecast and resets cleanly.
func TestMispredictForecaster(t *testing.T) {
	m := NewMispredict(forecast.NewNaive(), 2, 0.5)
	m.Observe(10)
	if f := m.Forecast(); f != 10 {
		t.Fatalf("1st forecast %v, want 10", f)
	}
	if f := m.Forecast(); f != 5 {
		t.Fatalf("2nd forecast %v, want corrupted 5", f)
	}
	m.Reset()
	m.Observe(10)
	if f := m.Forecast(); f != 10 {
		t.Fatalf("post-reset forecast %v, want 10", f)
	}
	factory := MispredictFactory(func() forecast.Forecaster { return forecast.NewNaive() }, 3, 2)
	if name := factory().Name(); name != "mispredict(naive,every=3,x2.00)" {
		t.Fatalf("factory name %q", name)
	}
}

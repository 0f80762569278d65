package scenario

// The canned chaos scenarios C1–C6: failure programs (internal/chaos) run
// against the standard workload with the cross-domain invariant auditor
// (internal/invariant) always on. Each scenario is a verification artifact
// first and an experiment second — the chaos suite in CI runs all six under
// -race and fails on any invariant violation, making scenario diversity
// itself the regression net every scaling PR runs against (DESIGN.md §8).
// Every scenario, C7–C9 included, is data — options plus a program — and
// Drive is the one thing that runs them.

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/forecast"
	"repro/internal/intent"
	"repro/internal/invariant"
	"repro/internal/testbed"
)

// ChaosResult condenses one chaos scenario run.
type ChaosResult struct {
	// Name is the scenario key ("c1".."c6"); Title the human description.
	Name  string `json:"name"`
	Title string `json:"title"`
	// Result is the standard workload summary.
	Result Result `json:"result"`
	// Steps lists the program's ops that fired, in execution order.
	Steps []chaos.FiredStep `json:"steps"`
	// AuditStats proves how much the invariant auditor checked.
	AuditStats invariant.Stats `json:"audit_stats"`
	// Violations is every invariant breach detected (empty == proof the
	// run kept the books exact).
	Violations []invariant.Violation `json:"violations"`
}

// chaosSpec couples a scenario's options (Seed and Shards are set per run)
// with its program.
type chaosSpec struct {
	title string
	opts  Options
	prog  []chaos.Op
}

// chaosBaseOptions is the shared chassis: overloaded arrivals, overbooking
// on, audit on.
func chaosBaseOptions(dur time.Duration, ia time.Duration) Options {
	return Options{
		Duration:         dur,
		MeanInterarrival: ia,
		Orchestrator: core.Config{
			Overbook:  true,
			Risk:      0.9,
			PLMNLimit: 64,
			Audit:     true,
		},
		Testbed: testbed.Config{MaxPLMNs: 64, RedundantTransport: true},
	}
}

// chaosSpecs defines C1–C6.
var chaosSpecs = map[string]chaosSpec{
	"c1": {
		title: "flash-crowd: demand spikes on half the tenants mid-run",
		opts:  chaosBaseOptions(4*time.Hour, 5*time.Minute),
		prog: []chaos.Op{
			{At: time.Hour, Name: "crowd-50pct", Kind: chaos.FlashCrowd, Frac: 0.5, Mbps: 60, Dur: 30 * time.Minute},
			{At: 150 * time.Minute, Name: "crowd-80pct", Kind: chaos.FlashCrowd, Frac: 0.8, Mbps: 100, Dur: 30 * time.Minute},
		},
	},
	"c2": {
		title: "rolling-link-failure: wireless hops fail, degrade and repair mid-epoch",
		opts:  chaosBaseOptions(4*time.Hour, 5*time.Minute),
		prog: []chaos.Op{
			{At: 60 * time.Minute, Name: "fail-enb1-uplink", Kind: chaos.LinkFail, From: testbed.ENBName(0), To: testbed.Switch},
			{At: 80 * time.Minute, Name: "repair-enb1-uplink", Kind: chaos.LinkRestore, From: testbed.ENBName(0), To: testbed.Switch},
			{At: 100 * time.Minute, Name: "fail-enb2-uplink", Kind: chaos.LinkFail, From: testbed.ENBName(1), To: testbed.Switch},
			{At: 120 * time.Minute, Name: "repair-enb2-uplink", Kind: chaos.LinkRestore, From: testbed.ENBName(1), To: testbed.Switch},
			{At: 140 * time.Minute, Name: "rain-fade-enb1", Kind: chaos.LinkDegrade, From: testbed.ENBName(0), To: testbed.Switch, Mbps: 120},
			{At: 170 * time.Minute, Name: "rain-clears-enb1", Kind: chaos.LinkDegrade, From: testbed.ENBName(0), To: testbed.Switch, Mbps: 1000},
			{At: 190 * time.Minute, Name: "fade-cell-2", Kind: chaos.CellFade, Index: 1, Level: 7},
			{At: 210 * time.Minute, Name: "cell-2-recovers", Kind: chaos.CellFade, Index: 1, Level: 12},
		},
	},
	"c3": {
		title: "squeeze-storm: overload bursts force repeated whole-registry squeezes under mispredicting forecasts",
		opts: func() Options {
			o := chaosBaseOptions(4*time.Hour, 2*time.Minute)
			o.Orchestrator.Risk = 0.75
			// Forecaster misprediction injection: every 4th forecast comes
			// in 40% low, so provisioning under-shoots and the squeeze +
			// violation machinery works overtime.
			o.Orchestrator.NewForecaster = chaos.MispredictFactory(
				func() forecast.Forecaster { return forecast.NewEWMA(0.3) }, 4, 0.6)
			return o
		}(),
		prog: chaos.Every(30*time.Minute, 30*time.Minute, 6, chaos.Op{Name: "burst", Kind: chaos.BurstSubmit, N: 10}),
	},
	"c4": {
		title: "MEC-brownout: edge compute hosts lose capacity, then recover",
		opts: func() Options {
			o := chaosBaseOptions(4*time.Hour, 4*time.Minute)
			o.Testbed.MECHosts = 2
			o.Testbed.MECHostCPUs = 12
			return o
		}(),
		prog: []chaos.Op{
			{At: 60 * time.Minute, Name: "brownout-h1", Kind: chaos.MECCapacity, Index: 0, Level: 1},
			{At: 90 * time.Minute, Name: "brownout-h2", Kind: chaos.MECCapacity, Index: 1, Level: 1},
			{At: 150 * time.Minute, Name: "recover-h1", Kind: chaos.MECCapacity, Index: 0, Level: 12},
			{At: 160 * time.Minute, Name: "recover-h2", Kind: chaos.MECCapacity, Index: 1, Level: 12},
		},
	},
	"c5": {
		title: "commit-fault-soak: rotating reserve/commit/resize faults across all four domains",
		opts: func() Options {
			o := chaosBaseOptions(4*time.Hour, 4*time.Minute)
			o.Testbed.MECHosts = 1
			o.Testbed.MECHostCPUs = 64
			return o
		}(),
		prog: faultSoak(),
	},
	"c6": {
		title: "churn-soak: sustained burst-submit/mass-delete churn for six hours",
		opts:  chaosBaseOptions(6*time.Hour, 3*time.Minute),
		prog: append(
			chaos.Every(30*time.Minute, 30*time.Minute, 11, chaos.Op{Name: "delete-wave", Kind: chaos.MassDelete, Frac: 0.4}),
			chaos.Every(45*time.Minute, 30*time.Minute, 10, chaos.Op{Name: "submit-wave", Kind: chaos.BurstSubmit, N: 8})...),
	},
}

// faultSoak is C5's program: each domain in turn gets a commit, a reserve
// and a resize fault armed ten minutes apart, then cleared.
func faultSoak() []chaos.Op {
	var prog []chaos.Op
	for i, d := range []string{"ran", "transport", "cloud", "mec"} {
		base := time.Duration(30+40*i) * time.Minute
		prog = append(prog,
			chaos.Op{At: base, Name: "arm-" + d + "-commit", Kind: chaos.InjectFault, Target: d, Stage: ctrl.FaultCommit, N: 3},
			chaos.Op{At: base + 10*time.Minute, Name: "arm-" + d + "-reserve", Kind: chaos.InjectFault, Target: d, Stage: ctrl.FaultReserve, N: 2},
			chaos.Op{At: base + 20*time.Minute, Name: "arm-" + d + "-resize", Kind: chaos.InjectFault, Target: d, Stage: ctrl.FaultResize, N: 4},
			chaos.Op{At: base + 30*time.Minute, Name: "clear-" + d, Kind: chaos.ClearFaults, Target: d})
	}
	return prog
}

// ChaosNames lists the canned scenarios C1–C6 in order.
func ChaosNames() []string {
	names := make([]string, 0, len(chaosSpecs))
	for n := range chaosSpecs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ChaosTitle returns the scenario's human description.
func ChaosTitle(name string) string { return chaosSpecs[name].title }

// ChaosProgram returns a canned single-cluster scenario (c1..c6 or c9) as
// data: its options at the seed and shard count (0 = default), and its
// program.
func ChaosProgram(name string, seed int64, shards int) (Options, []chaos.Op, error) {
	spec, ok := chaosSpecs[name]
	if name == "c9" {
		spec, ok = rolloutSpec, true
	}
	if !ok {
		return Options{}, nil, fmt.Errorf("scenario: unknown chaos scenario %q (have %v and c9)", name, ChaosNames())
	}
	opts := spec.opts
	opts.Seed = seed
	if shards > 0 {
		opts.Orchestrator.Shards = shards
	}
	return opts, spec.prog, nil
}

// ChaosScenario runs one canned chaos scenario (c1..c6) with the invariant
// auditor attached and returns the workload summary plus the audit verdict.
// The run is deterministic from the seed: the program's randomness is
// seeded separately from the workload's, and neither depends on the shard
// count.
func ChaosScenario(name string, seed int64) (ChaosResult, error) {
	return ChaosScenarioSharded(name, seed, 0)
}

// ChaosScenarioSharded is ChaosScenario with an explicit shard count (0 =
// default) — the handle the shard-equivalence proof uses.
func ChaosScenarioSharded(name string, seed int64, shards int) (ChaosResult, error) {
	opts, prog, err := ChaosProgram(name, seed, shards)
	if err != nil {
		return ChaosResult{}, err
	}
	r, err := NewRunner(opts)
	if err != nil {
		return ChaosResult{}, err
	}
	res, err := r.RunChaos(r.Env(), prog)
	if err != nil {
		return ChaosResult{}, err
	}
	res.Name, res.Title = name, ChaosTitle(name)
	return res, nil
}

// Drive is the one scenario driver: it installs prog on env with its victim
// draws seeded by seed, starts the arrival process, and runs the clock for
// dur. The program is scheduled before the arrivals, so equal-time ties on
// the sim heap break the same way on every run.
func Drive(env *chaos.Env, seed int64, prog []chaos.Op, startArrivals func(), dur time.Duration) error {
	chaos.Install(env, seed, prog)
	startArrivals()
	return env.Sim.RunFor(dur)
}

// fleetQuotas bounds the intent plane of a single-cluster chaos run.
var fleetQuotas = intent.Quotas{MaxSlicesPerTenant: 16, MaxSlicesPerRegion: 64}

// Env returns the chaos environment over r: its clock, orchestrator,
// testbed and workload, plus an intent plane for programs that publish,
// instantiate and roll out.
func (r *Runner) Env() *chaos.Env {
	return &chaos.Env{
		Sim:    r.Sim,
		Orch:   r.Orch,
		TB:     r.TB,
		Submit: func() { _, _ = r.SubmitNow() },
		Intent: intent.NewManager(r.Orch, r.Sim, intent.Config{Quotas: fleetQuotas}),
	}
}

// RunChaos drives prog on r through env for the configured duration and
// returns the workload summary with the invariant auditor's verdict.
func (r *Runner) RunChaos(env *chaos.Env, prog []chaos.Op) (ChaosResult, error) {
	if err := Drive(env, r.opts.Seed, prog, r.StartArrivals, r.opts.Duration); err != nil {
		return ChaosResult{}, err
	}
	res := ChaosResult{Result: r.Collect(), Steps: env.Log()}
	if a := r.Orch.Auditor(); a != nil {
		res.AuditStats = a.Stats()
		res.Violations = a.Violations()
	}
	return res, nil
}

// Package chaos implements the scripted failure engine: a chaos scenario is
// a program — a list of Op values, each an offset, a name, a Kind and that
// kind's arguments — that schedules adversarial events (tenant flash
// crowds, mass churn, link failures and repairs, cell fades, MEC-host
// brownouts, injected domain-commit faults, federation partitions and
// failures, intent-plane publishes, fleets and rollouts) against a running
// simulation, deterministically from a seed.
//
// An op holds no code: Apply is the one switch that gives each Kind its
// effect, so a program can be listed, compared and generated like any other
// value. Install schedules every op on the simulation clock; ops fire on the
// simulator's driver goroutine in deterministic event order, and any
// randomness (victim selection for churn) is drawn when the op fires from
// the program's own seeded RNG — never from the shared simulation RNG — so
// the same program against the same scenario produces bit-identical
// outcomes at any shard count (the property TestChaosShardEquivalence pins).
// Forecaster misprediction is not a step but a forecaster option
// (Mispredict).
//
// Chaos is a verification weapon, not a demo: every canned scenario in
// internal/scenario (C1–C9) runs with the invariant auditor enabled, so
// each scripted disaster doubles as a proof that the ledgers, reservations
// and event streams stay exact under it.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/federation"
	"repro/internal/intent"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

// Env is the surface a program acts on. The scenario driver assembles it;
// chaos never imports the driver, so the dependency stays acyclic.
type Env struct {
	// Sim drives time (ops are scheduled on it).
	Sim *sim.Simulator
	// Orch is the orchestrator under attack (nil in federated scenarios).
	Orch *core.Orchestrator
	// TB exposes the substrates and domain controllers.
	TB *testbed.Testbed
	// Submit injects one generated request from the scenario's workload
	// generator (used by BurstSubmit). May be nil when a program bursts
	// nothing.
	Submit func()
	// Fed is the federation under attack in multi-cluster scenarios (nil in
	// single-cluster ones; the cluster ops are then no-ops).
	Fed *federation.Federation
	// Intent is the intent plane over Orch (nil where there is none; the
	// publish, instantiate and rollout ops are then no-ops).
	Intent *intent.Manager

	// rng is the program's private randomness (victim selection); see the
	// package comment for why it is separate from the simulation RNG.
	rng *rand.Rand
	// log records fired ops for experiment output.
	log []FiredStep
	// fleets are the IDs of the fleets Instantiate created, in order; a
	// Rollout op names its fleet by index into it.
	fleets []string
}

// FiredStep records one executed op.
type FiredStep struct {
	At   time.Duration `json:"at"`
	Name string        `json:"name"`
}

// Log returns the ops fired so far, in execution order.
func (e *Env) Log() []FiredStep { return append([]FiredStep(nil), e.log...) }

// Kind names what an op does. The zero Kind is invalid.
type Kind uint8

// The op kinds. Each lists the Op fields it reads.
const (
	_ Kind = iota
	// FlashCrowd overlays Mbps of extra demand for Dur on a Frac-sized
	// random subset of the active slices — the stadium-event adversary for
	// the overbooking forecasts.
	FlashCrowd
	// BurstSubmit injects N workload requests back to back — the admission
	// half of mass churn.
	BurstSubmit
	// MassDelete tears down a Frac-sized random subset of the active slices
	// — the teardown half of mass churn.
	MassDelete
	// LinkFail takes the directed transport link From→To down mid-epoch;
	// the orchestrator re-routes or drops the victims.
	LinkFail
	// LinkRestore brings the directed link From→To back up.
	LinkRestore
	// LinkDegrade rescales the directed link From→To to Mbps (rain fade /
	// interference); oversubscribed victims are re-routed, shrunk to fair
	// share, or dropped.
	LinkDegrade
	// CellFade sets eNB Index's mean CQI to Level — the radio model of
	// capacity loss: a deep fade cuts the throughput every PRB sustains,
	// shrinking the cell capacity and the overbooking budget while
	// reservations stay intact.
	CellFade
	// MECCapacity sets MEC host Index's (name order) CPU capacity to Level,
	// clamped at current usage so placed apps are never stranded: a low
	// Level is a brownout that starves later edge placements, the nominal
	// Level its recovery.
	MECCapacity
	// InjectFault arms a fault at Stage on the domain named Target through
	// its ctrl.FaultInjector capability: the next N invocations of the
	// stage fail with the typed fault-injected rejection (N <= 0 keeps it
	// armed until ClearFaults).
	InjectFault
	// ClearFaults disarms every fault on the domain named Target.
	ClearFaults
	// PartitionCluster splits member cluster Target from the federation:
	// its summary freezes, placement excludes it, and every span with a leg
	// on it rolls back on the reachable members.
	PartitionCluster
	// HealCluster ends Target's partition: orphaned legs are deleted
	// exactly once and the member rejoins placement.
	HealCluster
	// FailCluster kills member Target permanently — the fail-over drill:
	// placement re-homes all new demand onto the survivors.
	FailCluster
	// Publish creates Template as the next draft version of its name and
	// publishes it.
	Publish
	// Instantiate creates a fleet from the published Template.Name version
	// Template.Version over Tenants × Regions, decided jointly under
	// Policy, each member offering a constant Mbps.
	Instantiate
	// Rollout starts Rollout on fleet Index (instantiation order); the
	// config's Fleet field is ignored.
	Rollout
)

// Op is one chaos step as a plain value: when it fires (At, from
// installation), what it is called, what it does and that kind's
// arguments. Fields a kind does not read stay zero.
type Op struct {
	At   time.Duration
	Name string
	Kind Kind

	Frac     float64
	Mbps     float64
	Dur      time.Duration
	N        int
	Index    int
	Level    float64
	From, To string
	Target   string
	Stage    ctrl.FaultStage
	Template intent.Template
	Tenants  []string
	Regions  []intent.Region
	Policy   core.BatchPolicy
	Rollout  intent.RolloutConfig
}

// Every expands op into count copies, the first at start and the rest
// period apart, named name#1..name#count.
func Every(start, period time.Duration, count int, op Op) []Op {
	out := make([]Op, count)
	for i := range out {
		out[i] = op
		out[i].At = start + time.Duration(i)*period
		out[i].Name = fmt.Sprintf("%s#%d", op.Name, i+1)
	}
	return out
}

// Install binds the program to the environment and schedules every op on
// the simulation clock. The environment's RNG is (re)seeded here, so
// installing the same program with the same seed on two identically-seeded
// environments replays identically.
func Install(env *Env, seed int64, prog []Op) {
	env.rng = rand.New(rand.NewSource(seed))
	start := env.Sim.Now()
	// Ops fire in offset order; ties fire in declaration order (the sim
	// heap breaks equal-time ties by schedule order, and sort.SliceStable
	// keeps declaration order among equal offsets).
	ops := append([]Op(nil), prog...)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].At < ops[j].At })
	for _, op := range ops {
		op := op
		env.Sim.At(start.Add(op.At), "chaos/"+op.Name, func() {
			env.log = append(env.log, FiredStep{At: op.At, Name: op.Name})
			Apply(env, op)
		})
	}
}

// Apply performs one op against the environment now. Errors from the
// attacked tiers are part of the drill and are dropped; a zero or unknown
// Kind is a malformed program and panics.
func Apply(env *Env, op Op) {
	switch op.Kind {
	case FlashCrowd:
		now := env.Sim.Now()
		for _, id := range pickFraction(env, activeIDs(env), op.Frac) {
			_ = env.Orch.WrapDemand(id, func(d traffic.Demand) traffic.Demand {
				if d == nil {
					d = traffic.NewConstant(0, 0, nil)
				}
				return &traffic.FlashCrowd{Base: d, Start: now, Duration: op.Dur, ExtraMbps: op.Mbps}
			})
		}
	case BurstSubmit:
		for i := 0; i < op.N; i++ {
			env.Submit()
		}
	case MassDelete:
		for _, id := range pickFraction(env, activeIDs(env), op.Frac) {
			_ = env.Orch.Delete(id)
		}
	case LinkFail:
		_, _ = env.Orch.HandleLinkFailure(op.From, op.To)
	case LinkRestore:
		_ = env.Orch.RestoreLink(op.From, op.To)
	case LinkDegrade:
		_, _ = env.Orch.HandleLinkDegradation(op.From, op.To, op.Mbps)
	case CellFade:
		if e, ok := env.TB.RAN.Get(testbed.ENBName(op.Index)); ok {
			e.SetMeanCQI(op.Level)
		}
	case MECCapacity:
		if env.TB.MEC == nil {
			return
		}
		if names := env.TB.MEC.HostNames(); op.Index >= 0 && op.Index < len(names) {
			_, _ = env.TB.MEC.SetHostCapacity(names[op.Index], op.Level)
		}
	case InjectFault:
		if fi, ok := injector(env.TB, op.Target); ok {
			fi.InjectFault(ctrl.Fault{Stage: op.Stage, Remaining: op.N, Detail: "chaos timeline fault"})
		}
	case ClearFaults:
		if fi, ok := injector(env.TB, op.Target); ok {
			fi.ClearFaults()
		}
	case PartitionCluster:
		if env.Fed != nil {
			_ = env.Fed.Partition(op.Target)
		}
	case HealCluster:
		if env.Fed != nil {
			_ = env.Fed.Heal(op.Target)
		}
	case FailCluster:
		if env.Fed != nil {
			_ = env.Fed.Fail(op.Target)
		}
	case Publish:
		if env.Intent == nil {
			return
		}
		now := env.Sim.Now()
		if t, err := env.Intent.Store().CreateDraft(op.Template, now); err == nil {
			_, _ = env.Intent.Store().Publish(t.Name, t.Version, now)
		}
	case Instantiate:
		if env.Intent == nil {
			return
		}
		demand := func(string, intent.Region, intent.Template) traffic.Demand {
			return traffic.NewConstant(op.Mbps, 0, nil)
		}
		if f, err := env.Intent.Instantiate(op.Template.Name, op.Template.Version, op.Tenants, op.Regions, op.Policy, demand); err == nil {
			env.fleets = append(env.fleets, f.ID)
		}
	case Rollout:
		if env.Intent == nil || op.Index < 0 || op.Index >= len(env.fleets) {
			return
		}
		cfg := op.Rollout
		cfg.Fleet = env.fleets[op.Index]
		_, _ = env.Intent.StartRollout(cfg)
	default:
		panic(fmt.Sprintf("chaos: op %q has unknown kind %d", op.Name, op.Kind))
	}
}

// injector resolves the named domain's fault-injection capability from the
// testbed's controller Set by its Domain() name — no identity branches, so
// pluggable Extra domains are addressable the same way as the built-in
// three.
func injector(tb *testbed.Testbed, domain string) (ctrl.FaultInjector, bool) {
	for _, c := range tb.Ctrl.All() {
		if c.Domain() == domain {
			return ctrl.Injector(c)
		}
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// Victim selection.

// activeIDs returns the IDs of active slices in submission order.
func activeIDs(env *Env) []slice.ID {
	page, _ := env.Orch.ListFiltered(core.ListOptions{State: "active"})
	out := make([]slice.ID, 0, len(page.Slices))
	for _, sn := range page.Slices {
		out = append(out, sn.ID)
	}
	return out
}

// pickFraction deterministically samples ceil(frac*n) of ids without
// replacement, preserving submission order among the picks.
func pickFraction(env *Env, ids []slice.ID, frac float64) []slice.ID {
	if frac <= 0 || len(ids) == 0 {
		return nil
	}
	if frac >= 1 {
		return ids
	}
	n := (len(ids)*int(frac*1000) + 999) / 1000
	if n < 1 {
		n = 1
	}
	if n > len(ids) {
		n = len(ids)
	}
	picked := make(map[int]bool, n)
	for len(picked) < n {
		picked[env.rng.Intn(len(ids))] = true
	}
	out := make([]slice.ID, 0, n)
	for i, id := range ids {
		if picked[i] {
			out = append(out, id)
		}
	}
	return out
}

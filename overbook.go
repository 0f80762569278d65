// Package overbook is the public facade of the end-to-end network-slice
// overbooking orchestrator — a from-scratch reproduction of "Overbooking
// Network Slices End-to-End: Implementation and Demonstration" (Zanzi et
// al., SIGCOMM'18 Posters and Demos).
//
// A System bundles the simulated testbed of the demo (two MOCN eNBs,
// mmWave/µWave transport around a programmable switch, edge and core
// OpenStack-style data centers) with the orchestrator that admits slices
// under revenue maximization, embeds them across the three domains, and
// overbooks their resources from traffic forecasts.
//
// Quick start:
//
//	sys, _ := overbook.NewSimulated(overbook.Options{Seed: 1,
//		Orchestrator: &overbook.OrchestratorConfig{Overbook: true}})
//	sys.Orchestrator.Start()
//	sl, _ := sys.Orchestrator.Submit(overbook.Request{
//		Tenant: "acme",
//		SLA: overbook.SLA{ThroughputMbps: 30, MaxLatencyMs: 20,
//			Duration: time.Hour, PriceEUR: 100, PenaltyEUR: 2},
//	}, nil)
//	sys.Sim.RunFor(time.Hour)
//	fmt.Println(sl.State(), sys.Orchestrator.Gain().MultiplexingGain)
//
// See examples/ for runnable programs and DESIGN.md for the architecture.
//
// A System is safe for concurrent use: the orchestrator core is sharded
// (see core.Config.Shards and DESIGN.md §3.4), so parallel Submit, Delete,
// Get, List, Gain, RecordDemand and the control epoch may be driven from
// many goroutines — independent tenants are admitted and installed in
// parallel. The control epoch is a phase pipeline (DESIGN.md §7): only its
// brief serial head quiesces the registry, the per-slice passes take one
// shard lock at a time, and the read plane (Gain, ActiveCount, List,
// LastEpoch) never takes more than one shard lock at a time — a dashboard
// polling at any rate cannot stall admission.
//
// The v2 surface is event-driven and context-aware: every lifecycle
// transition is published as an ordered Event, and
// Orchestrator.Watch(ctx, WatchOptions{Since: n}) resumes the stream from
// any recent sequence number (DESIGN.md §6). SubmitCtx, SubmitBatchCtx and
// ListFiltered add cancellation, filtering and keyset pagination; the v1
// methods remain as thin wrappers with identical behavior.
// The one single-goroutine surface is advancing a simulated
// System's virtual clock (Sim.RunFor / RunUntil / Step) and drawing from
// Sim.Rand, which stay with one driver to keep experiments deterministic.
package overbook

import (
	"repro/internal/core"
	"repro/internal/intent"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/testbed"
	"repro/internal/wal"
)

// Re-exported core types, so typical users import only this package.
type (
	// Request is a tenant's slice request.
	Request = slice.Request
	// SLA carries the contract parameters of a request.
	SLA = slice.SLA
	// Slice is a managed network slice.
	Slice = slice.Slice
	// Snapshot is the API view of a slice.
	Snapshot = slice.Snapshot
	// GainReport is the gains-vs-penalties dashboard report.
	GainReport = core.GainReport
	// OrchestratorConfig tunes admission and overbooking.
	OrchestratorConfig = core.Config
	// TestbedConfig scales the simulated infrastructure.
	TestbedConfig = testbed.Config
	// RejectionCause is the typed admission-rejection cause attached to a
	// rejected Slice (Slice.Cause, Snapshot.RejectCode).
	RejectionCause = slice.RejectionCause
	// RejectCode is the stable rejection taxonomy; the constants below are
	// errors.Is sentinels: errors.Is(&cause, overbook.RejectRadioCapacity).
	RejectCode = slice.RejectCode
	// Event is one ordered slice-lifecycle event delivered by
	// Orchestrator.Watch and GET /api/v2/events.
	Event = core.Event
	// EventType names one kind of lifecycle event (the constants below).
	EventType = core.EventType
	// WatchOptions positions and filters a Watch subscription.
	WatchOptions = core.WatchOptions
	// ListOptions filters and paginates Orchestrator.ListFiltered.
	ListOptions = core.ListOptions
	// ListPage is one page of filtered slice snapshots.
	ListPage = core.ListPage
	// PersistStatus reports the durability plane's health
	// (GET /api/v2/recovery).
	PersistStatus = core.PersistStatus
	// RecoveryReport summarises a crash-recovery boot (DESIGN.md §9).
	RecoveryReport = core.RecoveryReport
	// DryRunReport is the server-side feasibility report of
	// Orchestrator.DryRun — the full admission chain evaluated against live
	// capacity with nothing reserved (DESIGN.md §13).
	DryRunReport = core.DryRunReport
	// Template is one versioned slice class of the intent plane.
	Template = intent.Template
	// Fleet is the bulk-instantiation record of one template version.
	Fleet = intent.Fleet
	// Rollout is one canary reconfiguration of a fleet.
	Rollout = intent.Rollout
	// IntentManager drives templates, fleets and canary rollouts
	// (DESIGN.md §13).
	IntentManager = intent.Manager
	// IntentConfig parameterizes NewIntentManager.
	IntentConfig = intent.Config
)

// NewIntentManager builds the declarative intent plane over a system's
// orchestrator, scheduling rollout decisions on the system clock.
func NewIntentManager(sys *System, cfg IntentConfig) *IntentManager {
	return intent.NewManager(sys.Orchestrator, sys.Clock, cfg)
}

// The slice-lifecycle event taxonomy, re-exported from internal/core. A
// Watch subscriber (or SSE consumer) that falls behind the bounded replay
// ring receives one EventResync marker and must re-List state.
const (
	EventSubmitted    = core.EventSubmitted
	EventAdmitted     = core.EventAdmitted
	EventRejected     = core.EventRejected
	EventInstalled    = core.EventInstalled
	EventResized      = core.EventResized
	EventViolation    = core.EventViolation
	EventExpired      = core.EventExpired
	EventDeleted      = core.EventDeleted
	EventRestored     = core.EventRestored
	EventLinkFailed   = core.EventLinkFailed
	EventLinkDegraded = core.EventLinkDegraded
	EventLinkRestored = core.EventLinkRestored
	EventResync       = core.EventResync
	EventShutdown     = core.EventShutdown
)

// The stable rejection taxonomy, re-exported from internal/slice.
const (
	RejectPLMNExhausted     = slice.RejectPLMNExhausted
	RejectRadioCapacity     = slice.RejectRadioCapacity
	RejectLatencyUnmeetable = slice.RejectLatencyUnmeetable
	RejectTransportCapacity = slice.RejectTransportCapacity
	RejectCloudCapacity     = slice.RejectCloudCapacity
	RejectMECCapacity       = slice.RejectMECCapacity
	RejectRevenuePolicy     = slice.RejectRevenuePolicy
	RejectOther             = slice.RejectOther
)

// Service classes for SLA.Class.
const (
	ClassEMBB       = slice.ClassEMBB
	ClassAutomotive = slice.ClassAutomotive
	ClassEHealth    = slice.ClassEHealth
	ClassMMTC       = slice.ClassMMTC
)

// Options assembles a System. Zero values select the demo defaults.
type Options struct {
	// Seed drives all randomness of a simulated system.
	Seed int64
	// Orchestrator configures admission and overbooking; nil is the zero
	// config, peak provisioning. Overbook in it enables forecast-based
	// provisioning (the paper's headline feature).
	Orchestrator *OrchestratorConfig
	// Testbed overrides the infrastructure scale.
	Testbed TestbedConfig
}

// System is an assembled testbed + orchestrator.
type System struct {
	// Sim is the virtual clock (nil for live systems).
	Sim *sim.Simulator
	// Clock is the scheduler driving the orchestrator.
	Clock sim.Scheduler
	// Testbed is the simulated infrastructure.
	Testbed *testbed.Testbed
	// Orchestrator is the system under control.
	Orchestrator *core.Orchestrator

	// walWriter is the durable log of a NewLiveDurable system (nil
	// otherwise); Shutdown owns closing it.
	walWriter *wal.Writer
}

// CloseWAL detaches the persistence sink and closes the write-ahead log.
// The close is serialized against in-flight appends by the orchestrator's
// persistence mutex; mutations arriving afterwards proceed without
// durability instead of failing. A no-op on systems without persistence,
// and on second and later calls.
func (s *System) CloseWAL() error {
	if s.walWriter == nil {
		return nil
	}
	w := s.walWriter
	s.walWriter = nil
	return s.Orchestrator.ClosePersist(w.Close)
}

func (o Options) orchConfig() core.Config {
	if o.Orchestrator != nil {
		return *o.Orchestrator
	}
	return core.Config{}
}

// NewSimulated builds a deterministic simulated System: experiments run in
// virtual time via sys.Sim.RunFor.
func NewSimulated(opts Options) (*System, error) {
	s := sim.NewSimulator(opts.Seed)
	tb, err := testbed.New(opts.Testbed, s.Rand())
	if err != nil {
		return nil, err
	}
	orch := core.New(opts.orchConfig(), tb, s, monitor.NewStore(8192))
	return &System{Sim: s, Clock: s, Testbed: tb, Orchestrator: orch}, nil
}

// NewLive builds a wall-clock System for the daemon (cmd/orchestrator):
// the same orchestration code runs on real timers and demand arrives via
// the REST API.
func NewLive(opts Options) (*System, error) {
	clock := sim.NewRealtimeClock()
	tb, err := testbed.New(opts.Testbed, nil)
	if err != nil {
		return nil, err
	}
	orch := core.New(opts.orchConfig(), tb, clock, monitor.NewStore(8192))
	return &System{Clock: clock, Testbed: tb, Orchestrator: orch}, nil
}

// NewLiveDurable is NewLive with a write-ahead log under dataDir
// (DESIGN.md §9): when the directory holds a previous run's log, the
// orchestrator is rebuilt by deterministic crash recovery — checkpoint plus
// log-tail replay — before serving; an empty directory starts fresh with
// durability on. Orchestrator.PersistStatus reports the recovery outcome
// (also served at GET /api/v2/recovery). On exit call
// Orchestrator.Shutdown, then CloseWAL to flush and close the log.
func NewLiveDurable(opts Options, dataDir string) (*System, error) {
	clock := sim.NewRealtimeClock()
	tb, err := testbed.New(opts.Testbed, nil)
	if err != nil {
		return nil, err
	}
	orch, w, err := core.Recover(opts.orchConfig(), tb, clock, monitor.NewStore(8192), dataDir)
	if err != nil {
		return nil, err
	}
	return &System{Clock: clock, Testbed: tb, Orchestrator: orch, walWriter: w}, nil
}

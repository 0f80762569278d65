// Package core implements the paper's primary contribution: the end-to-end
// network slicing orchestrator that (i) admits heterogeneous slice requests
// under a revenue-maximization strategy, (ii) allocates resources across the
// radio, transport and cloud domains, and (iii) monitors, forecasts and
// dynamically reconfigures — overbooks — running slices to maximize
// statistical multiplexing (Sections 1–3 of the paper).
//
// The orchestrator is clock-driven (see internal/sim): Submit performs
// admission and reserves resources synchronously, then installation
// latencies (radio config, path setup, Heat stack, vEPC boot) elapse on the
// clock before the slice turns Active. A periodic control epoch measures
// demand, feeds the forecasters, charges SLA violations and resizes
// reservations.
//
// All multi-domain resource work — install, admission feasibility, resize,
// teardown, restoration — runs through the generic two-phase transaction
// engine (engine.go) over the uniform ctrl.Domain surface, with automatic
// reverse-order rollback; rejections carry typed slice.RejectionCause
// values end-to-end. The engine has no domain-specific branches, so new
// domains (e.g. the MEC compute domain) register in the testbed only.
//
// # Concurrency
//
// The Orchestrator is safe for concurrent use. Slice state is partitioned
// into Config.Shards independent shards (hash of slice ID), each with its
// own lock; teardowns, activations and demand recording for slices on
// different shards proceed in parallel. A submission decides and installs
// holding no shard lock — its slice is registered nowhere until it is done —
// and takes its shard's lock once, to publish, log and register the outcome.
// The shared radio overbooking budget is a capacity ledger with a two-phase
// reservation (reserve at admission, release on failure or teardown), so the
// admission capacity check is one compare-and-swap rather than a registry
// scan.
//
// Every book — the ledger, each slice's entry in it, the money and live
// capacity totals — is an int64 in slice.Kbps or slice.MicroEUR. Floats are
// converted where they enter a book and derived again at the reporting
// edge, so a reservation and its release cancel exactly in any order, and
// recovery reproduces the books of a concurrent run to the bit. The books
// and the registry are written only by the appliers in apply.go, which the
// live operations and recovery's replay both run.
//
// Submit, SubmitCtx, SubmitBatch, SubmitBatchCtx, Delete, Get, List,
// ListFiltered, ListFragments, Watch, Timeline, RecordDemand, ActiveCount,
// Gain, LastEpoch, RunEpoch, HandleLinkFailure, HandleLinkDegradation,
// RestoreLink, Start and Stop are all goroutine-safe. Every lifecycle
// transition is additionally published on an ordered event bus (events.go):
// Watch subscribers observe a single global sequence and may resume from any
// recent sequence number; slow subscribers are resynced, never allowed to
// stall admission.
//
// The read plane never freezes the registry: Gain and ActiveCount are
// served from per-shard atomic counters (gain.go),
// List/ListFiltered/ListFragments select their page through the shards'
// maintained submission order (one shard lock at a time, list.go), and
// each control epoch publishes an immutable EpochSnapshot for epoch-aligned
// reads. The control epoch itself is a phase pipeline (epoch.go): a brief
// serial collection pass holds every shard lock in index order, then the
// per-slice analysis and the reconfigurations each walk the slices in
// submission order on the epoch's goroutine, one shard lock at a time.
// Whole-registry passes — the epoch, a checkpoint, restoration and the
// audit sweep — hold passMu exclusively, and a submission holds its shared
// side while in flight, so no pass ever sees a half-installed slice. Which
// verb takes which lock, and in what order, is one table: the lock order in
// docs/design/07-control-epoch.md.
//
// # Durability
//
// With a Sink attached (Config.Persist, or Recover on a data directory)
// every state transition is logged as the outcome it produced and each
// top-level operation ends at a group-committed fsync boundary (DESIGN.md
// §9, §12). The durable schema is one file, records.go: the nine record
// types and the checkpoint blob, each with a single walker over wal.Codec
// that both encodes and decodes it behind a format-version byte — there is
// no second reader or writer, and payloads of another version are refused.
// persist.go holds the Sink seam and the append hook, commit.go the commit
// pipeline, checkpoint.go the full-state cut, apply.go the appliers a record
// is appended before, recover.go deterministic replay (decode → bind →
// apply); RecordJSON renders a payload for inspection.
package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ctrl"
	"repro/internal/forecast"
	"repro/internal/invariant"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

// UtilizationCap bounds the estimated radio load admission may reach, as a
// fraction of radio capacity.
const UtilizationCap = 0.95

const (
	// floorMbps is the minimum per-slice reservation: it keeps a slice's
	// control traffic alive however low its forecast falls.
	floorMbps = 1.0
	// eventBuffer bounds the lifecycle event replay ring: Watch subscribers
	// can resume from any sequence still within the last eventBuffer
	// events. Older positions resync (see EventResync).
	eventBuffer = 1024
)

// Config tunes the orchestrator. Zero values select the defaults noted on
// each field.
type Config struct {
	// Epoch is the monitoring/reconfiguration period (default 1m).
	Epoch time.Duration
	// Overbook enables forecast-based provisioning. When false every
	// slice keeps its full contracted reservation (peak provisioning).
	Overbook bool
	// Risk is the one-sided confidence that an overbooked slice's
	// provisioned capacity covers its demand (default 0.95). Values
	// >= 0.9995 behave like peak provisioning.
	Risk float64
	// AdmissionLoadFactor estimates mean/peak demand of a not-yet-observed
	// slice for the admission capacity check when overbooking (default 0.6).
	AdmissionLoadFactor float64
	// PenaltyAware rejects slices whose expected SLA penalties at the
	// configured risk exceed their price — the penalty-conscious variant
	// of the revenue-maximization policy (ablation A4).
	PenaltyAware bool
	// ReconfigThreshold is the hysteresis: reservations are resized only
	// when the target differs from the current allocation by more than
	// this fraction of the contract (default 0.05), and then only when the
	// radio would move: a target that sizes to the PRBs and throughput the
	// slice already holds is no resize, however far past the band it is.
	ReconfigThreshold float64
	// ShareUnusedPRBs lets the cell scheduler lend idle reserved PRBs to
	// saturated slices within an epoch (default false: violations then
	// reflect provisioning decisions alone; ablation A1 quantifies what
	// work-conserving sharing adds on top).
	ShareUnusedPRBs bool
	// NewForecaster builds the per-slice demand forecaster
	// (default EWMA(0.3)).
	NewForecaster func() forecast.Forecaster
	// PLMNLimit bounds simultaneously installed slices (default 6, the
	// MOCN SIB1 limit). Experiments that stress admission raise it.
	PLMNLimit int
	// HistoryLimit bounds how many finished (terminated/rejected) slices
	// are retained for the dashboard; the oldest beyond the limit are
	// pruned so a long-running daemon stays flat (default 512).
	HistoryLimit int
	// Shards is the number of independent shards the slice registry is
	// partitioned into (rounded up to a power of two, default 8). Slices
	// on different shards register, reconfigure and tear down under
	// different locks. Shard count never changes outcomes — only
	// contention — so deterministic simulations are identical at any
	// setting.
	Shards int
	// Audit attaches the cross-domain invariant auditor
	// (internal/invariant): every epoch barrier and restoration pass runs a
	// full conservation/leak sweep, every install rollback and teardown a
	// scoped leak check, and every published event is validated for
	// sequence gap-freeness and state-machine legality. Auditing observes,
	// it never alters outcomes — a fixed-seed run is identical with it on
	// or off. Read results via Auditor(). Chaos scenarios and CI soak tests
	// enable it; the cost is O(registry) per epoch.
	Audit bool
	// AuditOnViolation, when set with Audit, is called synchronously for
	// every detected violation (tests fail fast through it), with the
	// reporter's locks held — an intent plane over this orchestrator
	// reports its fold violations under its own lock — so it must not call
	// back into either.
	AuditOnViolation func(invariant.Violation)
	// Persist, when set, write-ahead logs every state transition to the
	// sink before the operation's durability boundary (commit = fsync) and
	// checkpoints full state every SnapshotEvery epochs, enabling
	// deterministic crash recovery via Recover (DESIGN.md §9). Leave nil to
	// run without durability.
	Persist Sink
	// SnapshotEvery is the checkpoint cadence in control epochs
	// (default 16). Only meaningful with Persist set.
	SnapshotEvery int
}

func (c Config) withDefaults() Config {
	if c.Epoch <= 0 {
		c.Epoch = time.Minute
	}
	if c.Risk <= 0 {
		c.Risk = 0.95
	}
	if c.AdmissionLoadFactor <= 0 {
		c.AdmissionLoadFactor = 0.6
	}
	if c.ReconfigThreshold <= 0 {
		c.ReconfigThreshold = 0.05
	}
	if c.NewForecaster == nil {
		c.NewForecaster = func() forecast.Forecaster { return forecast.NewEWMA(0.3) }
	}
	if c.PLMNLimit <= 0 {
		c.PLMNLimit = slice.DefaultPLMNLimit
	}
	if c.HistoryLimit <= 0 {
		c.HistoryLimit = 512
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	c.Shards = ceilPow2(c.Shards)
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 16
	}
	return c
}

// ceilPow2 rounds n up to the next power of two (capped at 1<<16).
func ceilPow2(n int) int {
	p := 1
	for p < n && p < 1<<16 {
		p <<= 1
	}
	return p
}

// effectiveRisk returns the provisioning risk honouring the master switch.
func (c Config) effectiveRisk() float64 {
	if !c.Overbook {
		return 1.0
	}
	return c.Risk
}

// managedSlice is the orchestrator's bookkeeping for one slice. All fields
// are guarded by the owning shard's mutex.
type managedSlice struct {
	s  *slice.Slice
	sh *shard
	// seq is the submission sequence parsed from the slice ID, set once by
	// shard.insert: the key of the shard's ordered list.
	seq  int
	prov *forecast.Provisioner
	// demand is the simulated offered-load process (nil in live mode,
	// where demand arrives via RecordDemand).
	demand traffic.Demand
	// lastDemand is the most recent demand sample in Mbps.
	lastDemand float64
	haveDemand bool
	// ledgerKbps is this slice's entry in the shared capacity ledger.
	ledgerKbps slice.Kbps
	// provCapMbps, when > 0, caps the epoch loop's provisioning target for
	// this slice — the intent plane's canary-rollout knob (SetProvisionCap):
	// without it any rollout resize would be undone by the next control
	// epoch's forecast-driven reconfiguration. Read and written under the
	// shard lock. Volatile: not persisted (replay imposes logged epoch
	// outcomes, so recovery digests are unaffected); the intent plane
	// re-establishes caps after a restart.
	provCapMbps float64
	// activateAt is the scheduled vEPC-boot completion instant (recovery
	// re-arms the activation timer from it).
	activateAt time.Time
	// timeline is the slice's installation timeline (nil for a rejection).
	timeline *InstallTimeline
	// series is the slice's telemetry ring — one row per epoch, a column each
	// for "slice/<id>/demand_mbps", ".../served_mbps" and
	// ".../allocated_mbps" — created on the slice's first epoch so the epoch
	// appends rows without formatting names or consulting the store's
	// registry; nil until then. Dropped from the store when the slice leaves
	// the history.
	series *monitor.Rows
	// bind is the slice's substrate handles, held by value: the radio and
	// transport controllers write them when install reserves (or recovery
	// imposes) the slice's resources, and read them on every resize and in
	// the epoch's scheduling pass — every ctrl.Tx of the slice points here
	// (sliceTx). Core never reads inside it. applyTeardown drops it.
	bind ctrl.Binding

	expiry     *sim.Event
	activation *sim.Event // pending end of installation
}

// Orchestrator is the end-to-end slice orchestrator. It is safe for
// concurrent use; see the package documentation for the sharding model.
type Orchestrator struct {
	cfg     Config
	clock   sim.Scheduler
	tb      *testbed.Testbed
	store   *monitor.Store
	plmns   *slice.PLMNAllocator
	domains txEngine

	shards    []*shard
	shardMask uint32
	ledger    capacityLedger
	history   finishedHistory
	bus       *EventBus

	// audit is the invariant auditor (nil unless Config.Audit; audit.go).
	audit *invariant.Auditor

	// lastEpoch is the snapshot the telemetry barrier (phase P4) publishes
	// each epoch (gain.go).
	lastEpoch atomic.Pointer[EpochSnapshot]

	// passMu is the lock for whole-registry passes. The control epoch, a
	// checkpoint, link restoration and the audit sweep take its exclusive
	// side, so no two of them interleave; a submission holds its shared
	// side from its submission event to its registration, so no pass runs
	// while an install is in flight. It is first in the lock order
	// (docs/design/07-control-epoch.md), never taken while holding a shard
	// lock, and never taken twice by one goroutine.
	passMu sync.RWMutex
	// roster is the registry in submission order (shard.go), guarded by
	// every shard lock; ep is the control epoch's dense working state
	// (epoch.go), guarded by passMu. Both are reused across passes.
	roster roster
	ep     epochScratch

	seq    atomic.Int64 // slice ID sequence
	epochs atomic.Int64 // control-loop passes

	// Durability plane (persist.go): persistMu is a leaf mutex guarding the
	// WAL sequence counter, the latched error and the closed flag, so
	// records can be appended from under shard locks and passMu. The sink
	// pointer itself is immutable once operations run (set by New or
	// AttachSink before anything concurrent starts) — the unguarded
	// `o.persist != nil` fast paths rely on that; detachment is the guarded
	// persistClosed flag, not a pointer write.
	persist       Sink
	persistMu     sync.Mutex
	walSeq        uint64
	persistErr    error
	persistClosed bool
	recovery      *RecoveryReport
	// commit is the group-commit state machine (commit.go): operations
	// reaching their durability boundary elect one leader to fsync for the
	// whole group instead of fsyncing individually. Its mutex is last in
	// the lock order (docs/design/07-control-epoch.md).
	commit commitGroup

	loopMu sync.Mutex
	loop   *sim.Event
}

// New returns an orchestrator over the testbed using the given clock.
func New(cfg Config, tb *testbed.Testbed, clock sim.Scheduler, store *monitor.Store) *Orchestrator {
	cfg = cfg.withDefaults()
	if store == nil {
		store = monitor.NewStore(4096)
	}
	o := &Orchestrator{
		cfg:       cfg,
		clock:     clock,
		tb:        tb,
		store:     store,
		plmns:     slice.NewPLMNAllocator(cfg.PLMNLimit),
		domains:   newTxEngine(tb.Ctrl),
		shards:    make([]*shard, cfg.Shards),
		shardMask: uint32(cfg.Shards - 1),
		history:   finishedHistory{limit: cfg.HistoryLimit},
		bus:       NewEventBus(eventBuffer),
		persist:   cfg.Persist,
	}
	o.commit.cond.L = &o.commit.mu
	for i := range o.shards {
		o.shards[i] = newShard()
	}
	if cfg.Audit {
		o.audit = invariant.New(invariant.Options{OnViolation: cfg.AuditOnViolation})
		o.bus.SetTap(o.auditObserveEvent)
	}
	return o
}

// Config returns the effective configuration.
func (o *Orchestrator) Config() Config { return o.cfg }

// Store returns the monitoring store (read by the REST API and dashboard).
func (o *Orchestrator) Store() *monitor.Store { return o.store }

// Testbed returns the managed testbed.
func (o *Orchestrator) Testbed() *testbed.Testbed { return o.tb }

// Start schedules the periodic control loop on the clock.
func (o *Orchestrator) Start() {
	o.loopMu.Lock()
	defer o.loopMu.Unlock()
	if o.loop != nil {
		return
	}
	o.loop = o.clock.Every(o.cfg.Epoch, "orchestrator/epoch", o.RunEpoch)
}

// Stop cancels the control loop.
func (o *Orchestrator) Stop() {
	o.loopMu.Lock()
	defer o.loopMu.Unlock()
	if o.loop != nil {
		o.loop.Cancel()
		o.loop = nil
	}
}

// InstallTimeline records the per-stage installation instants of one slice
// — the Fig. 2 workflow (PRB reserve → path setup → Heat stack → vEPC boot
// → UEs may attach).
type InstallTimeline struct {
	Submitted time.Time
	RadioDone time.Time
	PathsDone time.Time
	StackDone time.Time
	Active    time.Time
}

// Timeline returns the installation timeline of a slice, if recorded.
func (o *Orchestrator) Timeline(id slice.ID) (InstallTimeline, bool) {
	sh := o.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m, ok := sh.slices[id]
	if !ok || m.timeline == nil {
		return InstallTimeline{}, false
	}
	return *m.timeline, true
}

// errReject carries a typed admission rejection cause through the install
// path (not an error to callers: rejection is a normal outcome shown on the
// dashboard). It unwraps to the cause, so errors.Is against RejectCode
// sentinels works on the whole chain.
type errReject struct{ cause *slice.RejectionCause }

func (e errReject) Error() string { return e.cause.Detail }
func (e errReject) Unwrap() error { return e.cause }

// Submit runs admission control and, when accepted, reserves resources in
// all three domains and schedules the installation stages. The returned
// slice is in StateInstalling or StateRejected; rejection is not an error.
// The optional demand process makes the simulation feed the slice's
// offered load every epoch (live deployments call RecordDemand instead).
//
// Submit is safe for concurrent use: independent tenants are admitted and
// installed in parallel. It is a thin wrapper over SubmitCtx with a
// background context.
func (o *Orchestrator) Submit(req slice.Request, demand traffic.Demand) (*slice.Slice, error) {
	return o.SubmitCtx(context.Background(), req, demand)
}

// SubmitCtx is Submit with caller-controlled cancellation: a context that is
// already cancelled (or past its deadline) fails fast with ctx.Err() before
// any admission work. Once admission starts the multi-domain transaction
// runs to completion — reservations are atomic (fully installed or fully
// rolled back), never torn down halfway by a racing cancel.
//
// Each submission publishes its lifecycle on the event bus: EventSubmitted,
// then EventAdmitted or EventRejected, later EventInstalled when the
// installation stages complete (see Watch).
func (o *Orchestrator) SubmitCtx(ctx context.Context, req slice.Request, demand traffic.Demand) (*slice.Slice, error) {
	return o.submitCtx(ctx, req, demand, true)
}

// submitCtx is the shared submission body. From its submission event to its
// registration the submission is in flight, and holds the shared side of
// passMu for that span, so no whole-registry pass — no epoch, checkpoint,
// restoration or audit sweep — can see a half-installed slice. A standalone
// submission takes that read lock itself and commits (fsyncs) the WAL
// records it appended before returning; the batch path passes false, as it
// holds the read lock for the whole batch and commits once for it — same
// record stream, one fsync instead of one per item. Admission and the whole install run with no shard
// lock: the slice is registered nowhere until the end, so nothing else
// reaches it. The shard lock is taken once, to publish, log and register
// the outcome.
func (o *Orchestrator) submitCtx(ctx context.Context, req slice.Request, demand traffic.Demand, standalone bool) (*slice.Slice, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if req.Arrival.IsZero() {
		req.Arrival = o.clock.Now()
	}
	id := o.nextID()
	s, err := slice.New(id, req)
	if err != nil {
		return nil, err
	}
	if standalone {
		// Deferred in this order, the commit runs once passMu is released.
		defer o.commitPersist()
		o.passMu.RLock()
		defer o.passMu.RUnlock()
	}
	subEv := o.publish(EventSubmitted, s, "")
	sh := o.shardFor(id)

	// Phase one: admission checks plus the atomic capacity-ledger
	// reservation for the newcomer's estimated radio load. Phase two: the
	// multi-domain transaction; any failure releases the ledger reservation
	// and converts to a typed rejection.
	cause, reserved, dcName := o.admit(req)
	var (
		m          *managedSlice
		activateAt time.Time
	)
	if cause == nil {
		// The slice's record exists from here on, so install binds the
		// substrate handles straight into it; applyAdmit registers it.
		m = &managedSlice{s: s, sh: sh}
		if activateAt, err = o.install(m, dcName); err != nil {
			o.ledger.Release(reserved)
			o.auditSliceReleased(id) // rollback must leave nothing behind
			var rej errReject
			if !errors.As(err, &rej) {
				// The squeeze may have appended resize records before the
				// failure; they are real committed outcomes and become
				// durable at the commit above.
				return nil, err
			}
			cause = rej.cause
		}
	}
	sh.mu.Lock()
	if cause != nil {
		evicted := o.rejectLocked(s, cause, subEv)
		sh.mu.Unlock()
		o.dropFinished(evicted)
		return s, nil
	}
	ar := admitRecord{ReservedKbps: reserved, SubmittedAt: subEv.Time, ActivateAt: activateAt}
	admitEv := o.publish(EventAdmitted, s, "")
	if o.persist != nil {
		o.appendAdmit(s, ar, subEv, admitEv)
	}
	_ = o.applyAdmit(&ar, m, demand, false) // nothing to bind: cannot fail
	m.activation = o.clock.At(activateAt, string(id)+"/activate", func() { o.activate(id) })
	if o.audit != nil {
		o.auditSliceInstalled(m) // commit must hold what it recorded
	}
	sh.mu.Unlock()
	return s, nil
}

// nextID burns the next slice ID. The concatenation is byte-identical to the
// fmt.Sprintf("s-%d", ...) it replaced, minus the formatting machinery.
func (o *Orchestrator) nextID() slice.ID {
	return slice.ID("s-" + strconv.FormatInt(o.seq.Add(1), 10))
}

// rejectLocked rejects a request: s takes the typed cause, the rejection is
// published and logged, and applyReject registers it. It returns the finished
// slices evicted from the bounded history, which the caller must drop after
// releasing the shard lock it holds for s. subEv is the submission event
// (logged with the record alongside the rejection event).
func (o *Orchestrator) rejectLocked(s *slice.Slice, cause *slice.RejectionCause, subEv Event) []slice.ID {
	s.Reject(cause)
	rejEv := o.publish(EventRejected, s, cause.Detail)
	if o.persist != nil {
		o.appendRecord(recReject, &rejectRecord{Slice: s.Persist()}, subEv, rejEv)
	}
	evicted, _ := o.applyReject(s) // s carries its cause: cannot fail
	return evicted
}

// Delete tears the slice down ahead of its expiry.
func (o *Orchestrator) Delete(id slice.ID) error {
	sh := o.shardFor(id)
	sh.mu.Lock()
	m, ok := sh.slices[id]
	if !ok {
		sh.mu.Unlock()
		return fmt.Errorf("core: unknown slice %s", id)
	}
	switch m.s.State() {
	case slice.StateRejected, slice.StateTerminated:
		st := m.s.State()
		sh.mu.Unlock()
		return fmt.Errorf("core: slice %s already %s", id, st)
	}
	evicted := o.teardownLocked(m, "deleted by tenant", EventDeleted)
	o.auditSliceReleased(id)
	sh.mu.Unlock()
	o.dropFinished(evicted)
	o.commitPersist()
	return nil
}

// Get returns the slice by ID.
func (o *Orchestrator) Get(id slice.ID) (*slice.Slice, bool) {
	sh := o.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m, ok := sh.slices[id]
	if !ok {
		return nil, false
	}
	return m.s, true
}

func seqOf(id slice.ID) int {
	n := 0
	for i := 2; i < len(id); i++ {
		n = n*10 + int(id[i]-'0')
	}
	return n
}

// ErrBadDemand is wrapped by RecordDemand when the sample is not a finite
// throughput in [0, slice.MaxThroughputMbps]; front ends map it to a 400.
var ErrBadDemand = errors.New("core: bad demand sample")

// RecordDemand feeds a live demand measurement for the slice (Mbps). In
// simulations the attached traffic.Demand process supersedes it. The sample
// comes from outside the program and feeds the slice's forecaster, where one
// absurd value would hold the provisioning target at the contract for
// thousands of epochs — so anything outside the bound SLA.Validate puts on a
// contract is refused with ErrBadDemand and recorded nowhere.
func (o *Orchestrator) RecordDemand(id slice.ID, mbps float64) error {
	if !(mbps >= 0 && mbps <= slice.MaxThroughputMbps) { // NaN fails both
		return fmt.Errorf("%w: %g Mbps outside [0, %g]", ErrBadDemand, mbps, float64(slice.MaxThroughputMbps))
	}
	sh := o.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m, ok := sh.slices[id]
	if !ok {
		return fmt.Errorf("core: unknown slice %s", id)
	}
	m.lastDemand = mbps
	m.haveDemand = true
	return nil
}

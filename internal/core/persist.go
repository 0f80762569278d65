package core

import (
	"encoding/json"
	"errors"
	"sync"
	"time"

	"repro/internal/slice"
	"repro/internal/wal"
)

// This file is the orchestrator side of the durable write-ahead log
// (DESIGN.md §9). The framing layer (internal/wal) is payload-agnostic; the
// record schema below is the orchestration-level redo log: every record
// carries the full logged *outcome* of a state transition (PRBs per eNB,
// path hops and bandwidth, MEC host, money and ledger movements), so replay
// imposes recorded decisions instead of re-deriving them — the environment
// that shaped the original decision (CQI fades, MEC brownouts) is not
// durable, and re-running the decision logic against a rebuilt default
// environment could diverge.
//
// Hook discipline: records are appended inside the mutating operation's
// critical section (appendRecord takes only the leaf persistMu, so it is
// safe under shard locks and epochMu), and each top-level operation ends
// with one commitPersist() — the durability boundary — called with no shard
// lock and no epochMu held. A crash between an append and its commit may
// lose that operation entirely, but can never surface a torn prefix of it
// as recovered state.
//
// Since PR 9 the boundary is group-committed (DESIGN.md §12): instead of
// each operation fsyncing its own records, concurrent committers elect one
// leader that performs a single fsync covering every record appended so
// far; the rest block until a completed fsync's coverage reaches their last
// record. The durability contract is unchanged — commitPersist still does
// not return while the operation's records are only buffered — but the
// fsync cost is amortized across however many operations were in flight,
// and because the file write + fsync run outside persistMu (StagedSink),
// appends keep flowing while the disk works. A lone committer degenerates
// to the old synchronous per-op fsync, so single-driver simulations and the
// §9.2 crashtest harness see byte- and boundary-identical behaviour.

// Sink receives the orchestrator's write-ahead records. The production
// implementation wraps *wal.Writer (see WALSink); crash-point tests
// substitute an in-memory sink that snapshots digests at commit boundaries.
//
// Append may be called under shard locks and epochMu (it must only buffer).
// Committed and Snapshot are only ever invoked with no orchestrator lock
// held except the persistence mutex, so a Sink whose Committed reads back
// orchestrator state (List, Gain, StateDigest) is safe under a
// single-driver clock; such read-back sinks are for deterministic tests
// only, not for live concurrent deployments.
type Sink interface {
	// Append buffers one record. Sequence numbers are contiguous from 1.
	Append(rec wal.Record) error
	// Committed marks the operation boundary: everything appended so far
	// must become durable (fsync for the file-backed sink).
	Committed() error
	// Snapshot durably checkpoints a full-state blob anchored at record
	// sequence seq; records up to and including seq are folded into it.
	Snapshot(seq uint64, blob []byte) error
}

// StagedSink is the optional fast path a Sink can provide for group commit:
// StageCommit is called under the persistence mutex and must capture
// everything appended so far, returning a step that makes the capture
// durable. The step runs outside the persistence mutex — concurrent
// operations keep appending while the disk works — and the commit-group
// leadership protocol guarantees at most one staged step is in flight at a
// time, issued in capture order, with Snapshot/Close quiesced around it.
// Sinks without StageCommit (the crashtest digest probes) are committed
// under the persistence mutex exactly as before group commit.
type StagedSink interface {
	Sink
	StageCommit() func() error
}

// walSink adapts *wal.Writer to the Sink interface.
type walSink struct{ w *wal.Writer }

func (s walSink) Append(rec wal.Record) error         { return s.w.Append(rec) }
func (s walSink) Committed() error                    { return s.w.Sync() }
func (s walSink) Snapshot(seq uint64, b []byte) error { return s.w.Snapshot(seq, b) }
func (s walSink) StageCommit() func() error           { return s.w.StageSync() }

// WALSink wraps a write-ahead-log writer as the orchestrator's persistence
// sink: Committed maps to the batched fsync, Snapshot to the atomic
// checkpoint rename.
func WALSink(w *wal.Writer) Sink { return walSink{w} }

// Record type tags of the orchestration redo log.
const (
	recAdmit    = "admit"
	recReject   = "reject"
	recActivate = "activate"
	recTeardown = "teardown"
	recResize   = "resize"
	recReroute  = "reroute"
	recEpoch    = "epoch"
	recLink     = "link"
	recShutdown = "shutdown"
)

// pathRecord is one transport path outcome: the exact hops and bandwidth
// the original run reserved, so replay re-imposes the same route even if
// the (unlogged) topology weather would steer a fresh computation elsewhere.
type pathRecord struct {
	ID      string   `json:"id"`
	Hops    []string `json:"hops"`
	Mbps    float64  `json:"mbps"`
	DelayMs float64  `json:"delay_ms"`
}

// admitRecord logs a successful admission: the slice's full durable image
// (state Installing, allocation populated) plus every substrate outcome the
// install transaction produced.
type admitRecord struct {
	Slice        slice.Persisted `json:"slice"`
	ReservedKbps slice.Kbps      `json:"reserved_kbps"`
	Paths        []pathRecord    `json:"paths,omitempty"`
	MECHost      string          `json:"mec_host,omitempty"`
	MECCPU       float64         `json:"mec_cpu,omitempty"`
	SubmittedAt  time.Time       `json:"submitted_at"`
	ActivateAt   time.Time       `json:"activate_at"`
	Events       []Event         `json:"events"`
}

// rejectRecord logs a rejection. A reservation the admission path took and
// released before failing cancelled exactly and leaves nothing to log.
type rejectRecord struct {
	Slice  slice.Persisted `json:"slice"`
	Events []Event         `json:"events"`
}

// activateRecord logs the vEPC-boot completion that turned a slice Active.
type activateRecord struct {
	Slice  slice.ID  `json:"slice"`
	At     time.Time `json:"at"`
	Events []Event   `json:"events"`
}

// teardownRecord logs a teardown from any live state (tenant delete,
// expiry, EPC boot failure, unrecoverable link failure). The event carries
// the taxonomy type (deleted/expired) and post-transition state.
type teardownRecord struct {
	Slice  slice.ID `json:"slice"`
	Reason string   `json:"reason"`
	Events []Event  `json:"events"`
}

// resizeRecord logs a multi-domain reallocation outcome. Mbps and PRBs are
// the post-resize radio allocation; MECMbps is the throughput the MEC app
// was sized from (the radio-quantized value on engine resizes, the raw fair
// share on degradation shrinks). ResizePaths records whether transport
// reservations were resized to Mbps (engine resizes) or left to a preceding
// reroute record (degradation shrinks).
type resizeRecord struct {
	Slice       slice.ID       `json:"slice"`
	Mbps        float64        `json:"mbps"`
	PRBs        map[string]int `json:"prbs"`
	MECMbps     float64        `json:"mec_mbps"`
	ResizePaths bool           `json:"resize_paths"`
	Events      []Event        `json:"events"`
}

// rerouteRecord logs a restoration re-route: the replacement paths at their
// reserved bandwidth. Events is empty for the degradation shrink's interim
// re-route (the following resizeRecord carries the EventResized).
type rerouteRecord struct {
	Slice        slice.ID     `json:"slice"`
	Paths        []pathRecord `json:"paths"`
	WorstDelayMs float64      `json:"worst_delay_ms"`
	Events       []Event      `json:"events,omitempty"`
}

// epochItemRecord is one measured slice's epoch outcome. Counted mirrors
// whether the analysis phase reached the slice alive (RecordEpoch and the
// forecaster observation ran); Charged whether the commit phase actually
// billed the violation; LedgerUpdated/LedgerTo the capacity-ledger roll.
type epochItemRecord struct {
	Slice         slice.ID   `json:"slice"`
	Demand        float64    `json:"demand"`
	Served        float64    `json:"served"`
	Counted       bool       `json:"counted,omitempty"`
	Charged       bool       `json:"charged,omitempty"`
	LedgerUpdated bool       `json:"ledger_updated,omitempty"`
	LedgerTo      slice.Kbps `json:"ledger_to_kbps,omitempty"`
}

// epochRecord logs one control-epoch pass. Resize outcomes of the epoch are
// separate resizeRecords appended (in commit order) before this record;
// Snapshot is the published EpochSnapshot verbatim — including gain fields
// derived from the unlogged radio environment — so recovery restores the
// read plane bit-identically.
type epochRecord struct {
	Epoch    int64             `json:"epoch"`
	At       time.Time         `json:"at"`
	RANUtil  float64           `json:"ran_util"`
	Items    []epochItemRecord `json:"items,omitempty"`
	Snapshot EpochSnapshot     `json:"snapshot"`
	Events   []Event           `json:"events,omitempty"`
}

// linkRecord logs a transport-link transition driven through the
// orchestrator (failure, degradation, restoration). Per-victim outcomes
// follow as their own records in WAL order.
type linkRecord struct {
	Kind         string  `json:"kind"` // "fail" | "degrade" | "restore"
	From         string  `json:"from"`
	To           string  `json:"to"`
	CapacityMbps float64 `json:"capacity_mbps,omitempty"`
	Events       []Event `json:"events"`
}

// shutdownRecord logs a clean daemon shutdown: recovery knows the previous
// run ended at a commit boundary, and subscribers that were draining when
// the process died can observe the terminal event after restart.
type shutdownRecord struct {
	At     time.Time `json:"at"`
	Events []Event   `json:"events"`
}

// appendRecord marshals payload and buffers it on the sink under the next
// WAL sequence. It takes only the leaf persistMu, so callers may hold shard
// locks and epochMu. The first sink or marshal error latches: persistence
// is disabled from that point (surfaced via PersistStatus) rather than
// crashing the control plane mid-operation.
func (o *Orchestrator) appendRecord(typ string, payload any) {
	if o.persist == nil {
		return
	}
	// Marshal before taking persistMu: the payload is built from data the
	// caller owns (its shard lock is still held), so encoding it needs no
	// persistence state, and keeping it outside shrinks the append critical
	// section every other shard serializes on.
	b, merr := marshalRecord(payload)
	o.persistMu.Lock()
	defer o.persistMu.Unlock()
	if o.persistErr != nil || o.persistClosed {
		return
	}
	err := merr
	if err == nil {
		o.walSeq++
		err = o.persist.Append(wal.Record{Seq: o.walSeq, Type: typ, Payload: b})
	}
	if err != nil {
		o.persistErr = err
	}
}

// errPersistClosed is the commit-group outcome for operations whose
// durability boundary was reached after ClosePersist retired the sink; it
// deliberately never latches into persistErr (closing is not a failure).
var errPersistClosed = errors.New("core: persistence closed")

// commitGroup is the group-commit state machine (DESIGN.md §12). Its mutex
// is independent of persistMu and never held while acquiring it: the
// per-operation path goes persistMu → release → commit.mu, and the leader's
// flush goes commit.mu → release → persistMu → flush.
type commitGroup struct {
	mu   sync.Mutex
	cond sync.Cond
	// durable is the highest WAL sequence covered by a completed fsync;
	// an operation whose last record is at or below it is durable.
	durable uint64
	// flushing marks a flush (group leader, checkpoint, or close) in
	// flight; at most one at a time, so staged WAL writes land in order.
	flushing bool
	// cur is the commit group gathering for the next flush, nil when none.
	// Its first member is the designated leader (the only goroutine parked
	// on cond waiting for the in-flight flush); later arrivals join the
	// ticket and sleep on its done channel, so a completed group wakes its
	// members with one channel close instead of a Broadcast herd that
	// re-acquires mu once per member.
	cur *commitTicket
	// err is the latched flush failure: every current and future group
	// member observes it (a follower must not report durable success
	// because only the leader saw the fsync fail).
	err error
	// closed mirrors persistClosed so blocked members wake and return
	// instead of waiting for a flush that will never come.
	closed bool
	// barrier counts checkpoints waiting to take leadership. While it is
	// non-zero no new group leader is elected, so a checkpoint cannot be
	// starved by committers re-electing leaders faster than it can observe
	// flushing==false; commits queued behind the barrier are covered by
	// the checkpoint's own sync (its anchor is at or past their targets).
	barrier int

	// Telemetry (PersistStatus): completed fsync barriers, operations that
	// reached their durability boundary, and the largest group one fsync
	// covered.
	fsyncs    uint64
	commitOps uint64
	maxGroup  int
}

// commitTicket is one gathering commit group. members and maxTarget are
// guarded by commitGroup.mu; done is closed exactly once, by the leader,
// after every member's durability outcome is decided.
type commitTicket struct {
	members   int
	maxTarget uint64
	done      chan struct{}
}

// commitPersist is the durability boundary: it returns only once every
// record appended by the operation is covered by a completed fsync (or
// persistence has failed/closed, which latches and disables durability
// rather than crashing the control plane). It must be called with no shard
// lock and no epochMu held — test sinks read the orchestrator's state
// digest from inside Committed.
//
// Group commit: the first operation to reach the boundary while no group is
// gathering opens a ticket and leads it — it waits out any in-flight flush
// (parked on cond), then fsyncs once for every record appended so far: its
// own and those of every member that joined meanwhile. Joiners sleep on the
// ticket's channel and are woken by one close — their records were appended
// before they arrived here, so the leader's capture necessarily includes
// them. A lone committer flushes immediately and synchronously.
func (o *Orchestrator) commitPersist() {
	if o.persist == nil {
		return
	}
	o.persistMu.Lock()
	if o.persistErr != nil || o.persistClosed {
		o.persistMu.Unlock()
		return
	}
	target := o.walSeq
	o.persistMu.Unlock()

	g := &o.commit
	g.mu.Lock()
	g.commitOps++
	if g.err != nil || g.closed || g.durable >= target {
		g.mu.Unlock()
		return
	}
	if t := g.cur; t != nil {
		t.members++
		if target > t.maxTarget {
			t.maxTarget = target
		}
		g.mu.Unlock()
		<-t.done
		return
	}
	t := &commitTicket{members: 1, maxTarget: target, done: make(chan struct{})}
	g.cur = t
	for (g.flushing || g.barrier > 0) && !g.closed && g.err == nil {
		g.cond.Wait()
		if g.cur != t {
			// A checkpoint completed this ticket while its leader was
			// parked: every member (this goroutine included) is already
			// covered by the snapshot's sync.
			g.mu.Unlock()
			return
		}
	}
	if g.closed || g.err != nil || g.durable >= t.maxTarget {
		// Persistence ended, failed, or the flush just waited out (a prior
		// group, a checkpoint) already captured every member's records —
		// nothing left to fsync for this ticket.
		g.cur = nil
		g.mu.Unlock()
		close(t.done)
		return
	}
	g.flushing = true
	g.cur = nil
	members := t.members
	g.mu.Unlock()

	covered, err := o.flushCommit()

	g.mu.Lock()
	g.flushing = false
	if err != nil {
		if !errors.Is(err, errPersistClosed) {
			g.err = err
		}
	} else {
		g.fsyncs++
		if covered > g.durable {
			g.durable = covered
		}
		if members > g.maxGroup {
			g.maxGroup = members
		}
	}
	g.cond.Broadcast()
	g.mu.Unlock()
	close(t.done)
}

// flushCommit performs one durability barrier covering every record
// appended so far, returning the covered sequence. For a StagedSink the
// capture happens under persistMu but the write+fsync runs outside it, so
// concurrent operations keep appending records while the disk works; the
// caller's leadership (commitGroup.flushing) guarantees staged steps are
// serialized in capture order. Failures latch persistErr.
func (o *Orchestrator) flushCommit() (uint64, error) {
	o.persistMu.Lock()
	if o.persistErr != nil || o.persistClosed {
		err := o.persistErr
		o.persistMu.Unlock()
		if err == nil {
			err = errPersistClosed
		}
		return 0, err
	}
	covered := o.walSeq
	if ss, ok := o.persist.(StagedSink); ok {
		step := ss.StageCommit()
		o.persistMu.Unlock()
		err := step()
		if err != nil {
			o.persistMu.Lock()
			if o.persistErr == nil {
				o.persistErr = err
			}
			o.persistMu.Unlock()
		}
		return covered, err
	}
	err := o.persist.Committed()
	if err != nil {
		o.persistErr = err
	}
	o.persistMu.Unlock()
	return covered, err
}

// pathRecords captures the current transport reservations of the given
// path IDs (leaf substrate read locks only — safe under shard locks).
func (o *Orchestrator) pathRecords(pids []string) []pathRecord {
	out := make([]pathRecord, 0, len(pids))
	for _, pid := range pids {
		if r, ok := o.tb.Transport.Reservation(pid); ok {
			out = append(out, pathRecord{ID: r.ID, Hops: r.Hops, Mbps: r.Mbps, DelayMs: r.DelayMs})
		}
	}
	return out
}

// appendAdmit logs a successful admission with every substrate outcome.
// The caller holds the slice's shard lock.
func (o *Orchestrator) appendAdmit(m *managedSlice, reserved slice.Kbps, submittedAt time.Time, events ...Event) {
	if o.persist == nil {
		return
	}
	image := m.s.Persist()
	alloc := &image.Allocation
	rec := admitRecord{
		Slice:        image,
		ReservedKbps: reserved,
		Paths:        o.pathRecords(alloc.PathIDs),
		SubmittedAt:  submittedAt,
		ActivateAt:   m.activateAt,
		Events:       events,
	}
	if alloc.MECAppID != "" {
		if app, ok := o.tb.MEC.App(alloc.MECAppID); ok {
			rec.MECHost, rec.MECCPU = app.Host, app.CPU
		}
	}
	o.appendRecord(recAdmit, rec)
}

// PersistStatus reports the durability plane's health.
type PersistStatus struct {
	// Enabled reports whether a persistence sink is attached.
	Enabled bool `json:"enabled"`
	// LastSeq is the sequence of the most recently appended WAL record.
	LastSeq uint64 `json:"last_seq"`
	// Error carries the latched persistence error ("" while healthy).
	// Persistence disables itself on the first sink failure; the
	// orchestrator keeps running without durability.
	Error string `json:"error,omitempty"`
	// Recovered reports whether this orchestrator was built by Recover.
	Recovered bool `json:"recovered"`
	// Recovery summarises the recovery pass when Recovered.
	Recovery *RecoveryReport `json:"recovery,omitempty"`
	// DurableSeq is the highest WAL sequence covered by a completed fsync;
	// LastSeq minus DurableSeq is the buffered, not-yet-durable tail.
	DurableSeq uint64 `json:"durable_seq"`
	// Fsyncs counts completed durability barriers (group-commit fsyncs and
	// checkpoints). CommitOps counts operations that reached their
	// durability boundary; CommitOps/Fsyncs is the realized group-commit
	// amortization.
	Fsyncs    uint64 `json:"fsyncs"`
	CommitOps uint64 `json:"commit_ops"`
	// MaxGroup is the largest number of operations one fsync covered.
	MaxGroup int `json:"max_group,omitempty"`
}

// PersistStatus returns the durability plane's current status.
func (o *Orchestrator) PersistStatus() PersistStatus {
	st := PersistStatus{Enabled: o.persist != nil, Recovery: o.recovery, Recovered: o.recovery != nil}
	o.persistMu.Lock()
	st.LastSeq = o.walSeq
	if o.persistClosed {
		st.Enabled = false
	}
	if o.persistErr != nil {
		st.Error = o.persistErr.Error()
	}
	o.persistMu.Unlock()
	g := &o.commit
	g.mu.Lock()
	st.DurableSeq = g.durable
	st.Fsyncs = g.fsyncs
	st.CommitOps = g.commitOps
	st.MaxGroup = g.maxGroup
	g.mu.Unlock()
	return st
}

// Shutdown stops the control loop, publishes the terminal EventShutdown on
// the bus (so draining subscribers observe a clean end of stream instead of
// a silent cut) and flushes the write-ahead log. The orchestrator remains
// readable — and the sink remains attached, so late mutations stay durable
// while a server drains — until the caller closes the WAL writer via
// ClosePersist.
func (o *Orchestrator) Shutdown() Event {
	o.Stop()
	ev := Event{Time: o.clock.Now(), Type: EventShutdown, Detail: "orchestrator shutting down"}
	ev.Seq = o.bus.Publish(ev)
	o.appendRecord(recShutdown, shutdownRecord{At: ev.Time, Events: []Event{ev}})
	o.commitPersist()
	return ev
}

// ClosePersist retires the persistence sink and runs closeFn (the WAL
// writer's Close) under the persistence mutex, so it can never race a
// concurrent appendRecord/commitPersist against the writer's internals.
// The sink pointer stays in place (the lock-free `o.persist != nil` fast
// paths depend on it being immutable); the guarded persistClosed flag makes
// every subsequent append and commit a no-op rather than latching an error
// on a closed file — so a daemon closes the log only after its server has
// drained (see cmd/orchestrator). Safe to call without a sink attached and
// more than once; closeFn may be nil.
//
// Group-commit interaction: closing first waits out any in-flight flush and
// takes commit leadership, so a staged WAL write can never race the
// writer's Close (an operation whose commit completed before ClosePersist
// stays durable). Operations still blocked waiting for a flush are then
// woken by the closed flag and return non-durable — acknowledged-but-
// unflushed tails are the caller's responsibility, which is why the daemon
// drains its server and runs Shutdown (whose commit completes) first.
func (o *Orchestrator) ClosePersist(closeFn func() error) error {
	g := &o.commit
	g.mu.Lock()
	// Announce first: with closed set, no new leader is ever elected (and
	// blocked members drain), so only the one in-flight flush must be
	// waited out — churning committers cannot starve the close.
	g.closed = true
	for g.flushing {
		g.cond.Wait()
	}
	g.flushing = true
	g.mu.Unlock()

	o.persistMu.Lock()
	o.persistClosed = true
	var err error
	if closeFn != nil {
		err = closeFn()
	}
	o.persistMu.Unlock()

	g.mu.Lock()
	g.flushing = false
	g.cond.Broadcast()
	g.mu.Unlock()
	return err
}

// checkpointState is the full-state checkpoint blob (snapshot payload):
// everything recovery needs to rebuild the orchestrator without replaying
// the log from its beginning. Not captured — and documented as such in
// DESIGN.md §9 — are forecaster internals (re-driven from tail epoch
// records only), the monitoring store, and environment perturbations (CQI,
// MEC host capacities); recovered slices re-impose their logged outcomes
// onto a default-environment testbed.
type checkpointState struct {
	// EventNext is the bus's next sequence number.
	EventNext int64 `json:"event_next"`
	// Epochs is the control-loop pass counter.
	Epochs int64 `json:"epochs"`
	// SeqCounter is the slice-ID sequence counter.
	SeqCounter int64 `json:"seq_counter"`
	// LastEpoch is the published epoch snapshot, verbatim.
	LastEpoch *EpochSnapshot  `json:"last_epoch,omitempty"`
	PLMN      slice.PLMNState `json:"plmn"`
	// Counters are the global sums of the per-shard counters (gain.go).
	Counters counterState `json:"counters"`
	// History is the bounded finished-slice eviction queue, in order.
	History []slice.ID `json:"history,omitempty"`
	// Links is the transport topology's per-link up/capacity state.
	Links []linkState `json:"links,omitempty"`
	// Slices are the registry's slices in submission order, each with its
	// substrate outcomes for re-imposition.
	Slices []persistedSlice `json:"slices,omitempty"`
}

// linkState is one transport link's durable state.
type linkState struct {
	From         string  `json:"from"`
	To           string  `json:"to"`
	Up           bool    `json:"up"`
	CapacityMbps float64 `json:"capacity_mbps"`
}

// persistedSlice is one registry entry in the checkpoint: the slice's full
// durable image plus the orchestrator-level bookkeeping and substrate
// outcomes that live outside the slice. The capacity ledger has no field of
// its own: it is exactly the sum of the LedgerKbps entries, and restore
// rebuilds it from them — so a reservation an in-flight install holds at the
// cut (engine.go's squeeze window: registered nowhere, nothing logged yet)
// is not double-counted when its admit record replays.
type persistedSlice struct {
	Slice      slice.Persisted `json:"slice"`
	LedgerKbps slice.Kbps      `json:"ledger_kbps,omitempty"`
	// Paths / MECHost / MECCPU capture substrate outcomes for live slices
	// (empty for rejected/terminated entries kept only for the dashboard).
	Paths      []pathRecord     `json:"paths,omitempty"`
	MECHost    string           `json:"mec_host,omitempty"`
	MECCPU     float64          `json:"mec_cpu,omitempty"`
	ActivateAt time.Time        `json:"activate_at,omitempty"`
	LastDemand float64          `json:"last_demand,omitempty"`
	HaveDemand bool             `json:"have_demand,omitempty"`
	Timeline   *InstallTimeline `json:"timeline,omitempty"`
}

// buildCheckpointLocked assembles the checkpoint blob. The caller holds
// epochMu and every shard lock, so the cut is consistent.
func (o *Orchestrator) buildCheckpointLocked() ([]byte, error) {
	st := checkpointState{
		EventNext:  o.bus.LastSeq() + 1,
		Epochs:     o.epochs.Load(),
		SeqCounter: o.seq.Load(),
		PLMN:       o.plmns.Export(),
		Counters:   o.totals(),
	}
	if le := o.lastEpoch.Load(); le != nil {
		snap := *le
		st.LastEpoch = &snap
	}
	o.history.mu.Lock()
	st.History = append([]slice.ID(nil), o.history.ids...)
	o.history.mu.Unlock()
	for _, ls := range o.tb.Transport.Snapshot() {
		st.Links = append(st.Links, linkState{From: ls.From, To: ls.To, Up: ls.Up, CapacityMbps: ls.CapacityMbps})
	}
	walk := o.walkAllLocked()
	for m := walk.next(); m != nil; m = walk.next() {
		ps := persistedSlice{
			Slice:      m.s.Persist(),
			LedgerKbps: m.ledgerKbps,
			ActivateAt: m.activateAt,
			LastDemand: m.lastDemand,
			HaveDemand: m.haveDemand,
		}
		switch m.s.State() {
		case slice.StateAdmitted, slice.StateInstalling, slice.StateActive, slice.StateReconfiguring:
			alloc := &ps.Slice.Allocation
			ps.Paths = o.pathRecords(alloc.PathIDs)
			if alloc.MECAppID != "" {
				if app, ok := o.tb.MEC.App(alloc.MECAppID); ok {
					ps.MECHost, ps.MECCPU = app.Host, app.CPU
				}
			}
		}
		if tl, ok := m.sh.timelines[m.s.ID()]; ok {
			cp := *tl
			ps.Timeline = &cp
		}
		st.Slices = append(st.Slices, ps)
	}
	return json.Marshal(st)
}

// checkpoint writes a full-state snapshot anchored at the WAL sequence
// current while the shards are quiesced. Called from the epoch tail with
// epochMu held and no shard lock; it quiesces the shards itself for the
// consistent cut.
//
// The anchor must be captured inside the lockAll window: the moment the
// shard locks drop, a concurrent operation (SubmitCtx, an activation timer,
// Delete) can append records and advance walSeq, and a snapshot anchored
// past records whose effects are not in the blob would make recovery skip
// them — silently losing the operations. persistMu nests inside shard locks
// everywhere (appendRecord), so acquiring it here preserves lock order, and
// holding it through Snapshot pins anchor == last appended record at the
// checkpoint's fsync.
//
// Group-commit interaction: the checkpoint first takes commit leadership —
// waiting out any in-flight group flush — because Snapshot both syncs the
// log and may compact it (swapping the writer's file handle), which must
// never overlap a staged write still holding the old handle. For a
// StagedSink the snapshot's own sync advances the durable frontier (anchor
// == walSeq at the cut, at or past every queued commit target), so queued
// operations are released durable without another fsync. For probing sinks
// (§9.2 crashtest) the frontier is deliberately NOT advanced: those sinks
// observe every operation boundary through Committed, and swallowing the
// boundary that follows a checkpoint would shift their captured commit
// stream relative to the pre-group-commit contract.
func (o *Orchestrator) checkpoint() {
	if o.persist == nil {
		return
	}
	g := &o.commit
	g.mu.Lock()
	g.barrier++
	for g.flushing && !g.closed {
		g.cond.Wait()
	}
	g.barrier--
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.flushing = true
	g.mu.Unlock()

	o.lockAll()
	blob, err := o.buildCheckpointLocked()
	o.persistMu.Lock()
	anchor := o.walSeq
	o.unlockAll()
	ok := false
	if o.persistErr == nil && !o.persistClosed {
		if err == nil {
			err = o.persist.Snapshot(anchor, blob)
		}
		if err != nil {
			o.persistErr = err
		} else {
			ok = true
		}
	}
	o.persistMu.Unlock()

	_, staged := o.persist.(StagedSink)
	g.mu.Lock()
	g.flushing = false
	if ok {
		g.fsyncs++
		if staged && anchor > g.durable {
			g.durable = anchor
		}
		// The snapshot's sync may already cover every member of the
		// gathering ticket; complete it here rather than waiting for its
		// parked leader to win the lock back — under a hot checkpoint loop
		// the leader may not be scheduled for a long time, and its members
		// would be held hostage with their records long since durable.
		if t := g.cur; t != nil && g.durable >= t.maxTarget {
			g.cur = nil
			close(t.done)
		}
	} else if err != nil {
		g.err = err
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// StateDigest returns a canonical JSON image of every externally observable
// outcome the recovery contract promises to reproduce bit-identically: the
// gain report, every slice snapshot in submission order, the published
// epoch snapshot, the capacity ledger, the event sequence head and the epoch
// counter. Crash-point tests compare digests between an
// uncrashed run and a crash-recovered one at commit boundaries.
//
// Fields derived live from the radio environment (physical capacity at the
// current mean CQI, and the overbooking ratio computed from it) are
// excluded: chaos-injected CQI fades are deliberately not durable, so a
// recovered orchestrator measures default-environment capacity. The
// epoch-aligned values inside LastEpoch are restored verbatim from the log
// and do compare exactly.
func (o *Orchestrator) StateDigest() []byte {
	g := o.Gain()
	g.CapacityMbps = 0
	g.OverbookingRatio = 0
	var last *EpochSnapshot
	if snap, ok := o.LastEpoch(); ok {
		last = &snap
	}
	d := struct {
		Gain         GainReport       `json:"gain"`
		Slices       []slice.Snapshot `json:"slices"`
		LastEpoch    *EpochSnapshot   `json:"last_epoch,omitempty"`
		LedgerKbps   slice.Kbps       `json:"ledger_kbps"`
		LastEventSeq int64            `json:"last_event_seq"`
		Epochs       int64            `json:"epochs"`
	}{
		Gain:         g,
		Slices:       o.List(),
		LastEpoch:    last,
		LedgerKbps:   o.ledger.Load(),
		LastEventSeq: o.bus.LastSeq(),
		Epochs:       o.epochs.Load(),
	}
	b, err := json.Marshal(d)
	if err != nil {
		return []byte("digest-error: " + err.Error())
	}
	return b
}

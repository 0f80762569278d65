package core

import (
	"encoding/json"

	"repro/internal/slice"
	"repro/internal/transport"
	"repro/internal/wal"
)

// This file is the orchestrator side of the durable write-ahead log
// (DESIGN.md §9): the Sink seam, the append hook every mutating operation
// calls, the durability status and the canonical state digest. The record
// schema and its codec are in records.go, the group-commit pipeline behind
// commitPersist in commit.go, checkpointing in checkpoint.go.
//
// Hook discipline: records are appended inside the mutating operation's
// critical section (appendRecord takes only persistMu, which comes after
// passMu and the shard locks in the lock order of
// docs/design/07-control-epoch.md), after the operation decided and before
// its applier (apply.go) makes the effect visible; each top-level operation
// ends with one commitPersist() — the durability boundary — called with no
// shard lock and no passMu held. A crash between an append and its
// commit may lose that operation entirely, but can never surface a torn
// prefix of it as recovered state.
//
// Since PR 9 the boundary is group-committed (DESIGN.md §12): instead of
// each operation fsyncing its own records, concurrent committers elect one
// leader that performs a single fsync covering every record appended so
// far; the rest block until a completed fsync's coverage reaches their last
// record. The durability contract is unchanged — commitPersist still does
// not return while the operation's records are only buffered — but the
// fsync cost is amortized across however many operations were in flight,
// and because every sink's durability step runs outside persistMu, appends
// keep flowing while the disk works. A lone committer degenerates to the
// old synchronous per-op fsync.

// Sink receives the orchestrator's write-ahead records. The production
// implementation wraps *wal.Writer (see WALSink); crash-point tests
// substitute an in-memory sink that snapshots digests at commit boundaries.
//
// One lock contract holds for every sink. Append and Snapshot run under the
// persistence mutex, Append possibly under shard locks and passMu as well,
// so it must only buffer. Committed runs outside the mutex with no
// orchestrator lock held; commit leadership serializes it with every other
// durability step, Snapshot and the close hook. Other operations may append
// while it runs. A Sink whose Committed reads orchestrator state back (List,
// Gain, StateDigest) is therefore safe only under a single-driver clock: a
// deterministic test, never a live deployment.
type Sink interface {
	// Append buffers one record. Sequence numbers are contiguous from 1.
	Append(rec wal.Record) error
	// Committed marks the operation boundary: everything appended before
	// it was called must become durable (fsync for the file-backed sink).
	Committed() error
	// Snapshot durably checkpoints a full-state blob anchored at record
	// sequence seq; records up to and including seq are folded into it.
	// A completed Snapshot is a durability barrier: operations whose
	// records it covers are released without a Committed call.
	Snapshot(seq uint64, blob []byte) error
}

// StagedSink is a Sink whose commit splits in two for group commit:
// StageCommit runs under the persistence mutex and captures everything
// appended so far; the step it returns makes the capture durable and runs
// outside the mutex, in place of Committed. Commit leadership keeps at
// most one step in flight, issues them in capture order, and never lets
// one overlap Snapshot or the close hook — the WAL writer's Snapshot and
// Close replace the file handle a step captured.
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

// appendRecord encodes rec and the events its operation published and
// buffers them on the sink under the next WAL sequence. It takes only the
// persistMu, so callers may hold shard locks and passMu. The first sink
// error latches: persistence is disabled from that point (surfaced via
// PersistStatus) rather than crashing the control plane mid-operation.
func (o *Orchestrator) appendRecord(typ string, rec record, events ...Event) {
	if o.persist == nil {
		return
	}
	// Encode before taking persistMu: the record is built from data the
	// caller owns (its shard lock is still held), so encoding it needs no
	// persistence state, and keeping it outside shrinks the append critical
	// section every other shard serializes on.
	b := encodeRecord(&logPayload{rec, events})
	o.persistMu.Lock()
	defer o.persistMu.Unlock()
	if o.persistErr != nil || o.persistClosed {
		return
	}
	o.walSeq++
	if err := o.persist.Append(wal.Record{Seq: o.walSeq, Type: typ, Payload: b}); err != nil {
		o.persistErr = err
	}
}

// pathRecords captures the current transport reservations of the given
// path IDs (leaf substrate read locks only — safe under shard locks).
func (o *Orchestrator) pathRecords(pids []string) []transport.Reservation {
	out := make([]transport.Reservation, 0, len(pids))
	for _, pid := range pids {
		if r, ok := o.tb.Transport.Reservation(pid); ok {
			out = append(out, r)
		}
	}
	return out
}

// appendAdmit logs a successful admission: ar's outcome plus the slice's
// image and every substrate outcome its install produced. The caller holds
// the slice's shard lock.
func (o *Orchestrator) appendAdmit(s *slice.Slice, ar admitRecord, events ...Event) {
	ar.Slice = s.Persist()
	alloc := &ar.Slice.Allocation
	ar.Paths = o.pathRecords(alloc.PathIDs)
	if alloc.MECAppID != "" {
		if app, ok := o.tb.MEC.App(alloc.MECAppID); ok {
			ar.MECHost, ar.MECCPU = app.Host, app.CPU
		}
	}
	o.appendRecord(recAdmit, &ar, events...)
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
	o.appendRecord(recShutdown, &shutdownRecord{At: ev.Time}, ev)
	o.commitPersist()
	return ev
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

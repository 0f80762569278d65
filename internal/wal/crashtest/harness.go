// Package crashtest proves the deterministic crash-recovery contract
// (DESIGN.md §9) by brute force: it runs a chaos program — one of the
// canned single-cluster scenarios C1–C6 and C9 — with an in-memory
// persistence sink that remembers every WAL record, every commit (fsync)
// boundary with a state digest taken at that instant, and every checkpoint
// snapshot — then simulates a crash after every record prefix, recovers an
// orchestrator from the captured image onto a fresh testbed, and checks the
// outcome:
//
//   - at a commit boundary the recovered state digest (gain report, slice
//     registry, epoch snapshot, capacity ledger, event sequence) must be
//     bit-identical to the uncrashed run's digest at that boundary;
//   - at any other prefix — a crash inside the fsync window, where part of
//     an operation's records reached the disk — recovery must still
//     succeed and the cross-domain invariant auditor's full sweep must
//     come back clean.
//
// The harness lives next to the WAL because it is the log's acceptance
// test: the scenarios and orchestrator are the workload, the log format and
// replay are the subject.
package crashtest

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/wal"
)

// Boundary marks one commit (fsync) boundary of the reference run.
type Boundary struct {
	// Records is how many records had been appended when the boundary hit.
	Records int
	// Digest is the orchestrator's state digest at the boundary.
	Digest []byte
}

// Snap is one captured checkpoint snapshot.
type Snap struct {
	// Records is how many records had been appended when the snapshot was
	// taken (snapshots anchor at the current WAL sequence, so this equals
	// the anchor for a contiguous log).
	Records int
	Seq     uint64
	Blob    []byte
}

// Sink is the in-memory core.Sink of the reference run. It commits like the
// daemon's WAL sink: core calls Committed outside its persistence mutex,
// and a completed Snapshot is a durability barrier that stands in for the
// commit after it. Both record a boundary and read the orchestrator's
// state digest back through the Digest probe — legal only under a
// single-driver simulated clock (see core.Sink docs).
type Sink struct {
	mu sync.Mutex
	// Digest is bound to the orchestrator's StateDigest after construction
	// (the orchestrator does not exist yet when the sink is handed to its
	// config). Boundaries before binding carry a nil digest.
	Digest func() []byte

	Records    []wal.Record
	Boundaries []Boundary
	Snapshots  []Snap
}

// Append buffers one record.
func (s *Sink) Append(rec wal.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if want := uint64(len(s.Records)) + 1; rec.Seq != want {
		return fmt.Errorf("crashtest: non-contiguous seq %d (want %d)", rec.Seq, want)
	}
	s.Records = append(s.Records, rec)
	return nil
}

// Committed marks a durability boundary and captures the state digest.
// Boundaries that flushed no new records are collapsed into the previous
// one — the state cannot have changed without a record.
func (s *Sink) Committed() error {
	var probe func() []byte
	s.mu.Lock()
	if n := len(s.Boundaries); n > 0 && s.Boundaries[n-1].Records == len(s.Records) {
		s.mu.Unlock()
		return nil
	}
	probe = s.Digest
	s.mu.Unlock()
	// The digest probe re-enters the orchestrator (List, Gain, ...); take it
	// outside the sink lock.
	var d []byte
	if probe != nil {
		d = probe()
	}
	s.mu.Lock()
	s.Boundaries = append(s.Boundaries, Boundary{Records: len(s.Records), Digest: d})
	s.mu.Unlock()
	return nil
}

// Snapshot captures a checkpoint blob and marks the boundary it makes
// durable: core releases the operations the checkpoint covers without a
// Committed call. Snapshot runs under core's persistence mutex, so the
// probe takes the shard locks inside it — the reverse of core's lock
// order, harmless only because nothing else runs in a single-driver
// reference run.
func (s *Sink) Snapshot(seq uint64, blob []byte) error {
	s.mu.Lock()
	s.Snapshots = append(s.Snapshots, Snap{
		Records: len(s.Records),
		Seq:     seq,
		Blob:    append([]byte(nil), blob...),
	})
	s.mu.Unlock()
	return s.Committed()
}

// Reference is one uncrashed chaos-program run with its full persistence
// capture.
type Reference struct {
	Opts   scenario.Options
	Sink   *Sink
	Result scenario.ChaosResult
}

// snapshotEvery is the checkpoint cadence (control epochs) for harness runs:
// short enough that every scenario crosses several snapshot boundaries, so
// recovery is exercised from checkpoints of many vintages, not just from an
// empty log.
const snapshotEvery = 8

// RunReference runs the canned single-cluster chaos scenario name (c1..c6,
// c9) at the given shard count as a reference run.
//
// Kept: the package is the crash-recovery suites' harness;
// TestCrashRecoveryEquivalence and TestCrashRecoveryC9 run their reference
// through it.
func RunReference(name string, seed int64, shards int) (*Reference, error) {
	opts, prog, err := scenario.ChaosProgram(name, seed, shards)
	if err != nil {
		return nil, err
	}
	return RunProgram(opts, prog)
}

// RunProgram runs prog under opts with the capturing sink and the harness's
// checkpoint cadence attached; the sink's digest probe is bound to the
// orchestrator before the program is installed.
func RunProgram(opts scenario.Options, prog []chaos.Op) (*Reference, error) {
	ref := &Reference{Opts: opts, Sink: &Sink{}}
	ref.Opts.Orchestrator.Persist = ref.Sink
	ref.Opts.Orchestrator.SnapshotEvery = snapshotEvery
	r, err := scenario.NewRunner(ref.Opts)
	if err != nil {
		return nil, err
	}
	ref.Sink.Digest = r.Orch.StateDigest
	if ref.Result, err = r.RunChaos(r.Env(), prog); err != nil {
		return nil, err
	}
	return ref, nil
}

// Image reconstructs the durable image a crash after the first n records
// would leave behind: the newest checkpoint covered by the prefix plus the
// record tail after its anchor.
func (ref *Reference) Image(n int) *wal.Recovered {
	rec := &wal.Recovered{LastSeq: uint64(n)}
	for _, sn := range ref.Sink.Snapshots {
		// A snapshot is durable the moment it was written (atomic rename in
		// the file-backed sink), independent of later commit boundaries.
		if sn.Records <= n {
			rec.SnapshotSeq = sn.Seq
			rec.Snapshot = sn.Blob
		}
	}
	rec.Records = ref.Sink.Records[int(rec.SnapshotSeq):n]
	return rec
}

// Recover rebuilds an orchestrator from the crash image after n records,
// onto a fresh default-environment testbed with the auditor attached, and
// returns it.
//
// Kept: TestCrashRecoveryC9 and TestResizeTeardownCrashWindows recover each
// crash image through it.
func (ref *Reference) Recover(n int) (*core.Orchestrator, *core.RecoveryReport, error) {
	return recoverImage(ref, ref.Image(n))
}

// recoverImage recovers an arbitrary durable image against the reference
// run's configuration on a fresh testbed.
func recoverImage(ref *Reference, img *wal.Recovered) (*core.Orchestrator, *core.RecoveryReport, error) {
	s := sim.NewSimulator(ref.Opts.Seed)
	tb, err := testbed.New(ref.Opts.Testbed, s.Rand())
	if err != nil {
		return nil, nil, err
	}
	cfg := ref.Opts.Orchestrator
	cfg.Persist = nil
	cfg.Audit = true
	cfg.AuditOnViolation = nil
	return core.RecoverFromWAL(cfg, tb, s, monitor.NewStore(256), img)
}

// CrashPoints selects which record-prefix lengths to test: every commit
// boundary and every snapshot anchor when there are at most max of them,
// an evenly strided subset (always keeping the first and the final
// boundary) otherwise. Returned values are record counts; IsBoundary tells
// digest-comparable points apart from mid-operation ones.
//
// Kept: TestCrashRecoveryEquivalence and TestCrashRecoveryC9 pick their crash
// points with it.
func (ref *Reference) CrashPoints(maxBoundaries, maxMidOp int) (points []int, boundary map[int]*Boundary) {
	boundary = make(map[int]*Boundary)
	for i := range ref.Sink.Boundaries {
		b := &ref.Sink.Boundaries[i]
		boundary[b.Records] = b
	}
	bounds := make([]int, 0, len(boundary))
	for n := range boundary {
		bounds = append(bounds, n)
	}
	sort.Ints(bounds)
	points = stride(bounds, maxBoundaries)

	// Mid-operation points: prefixes that are not commit boundaries. Every
	// record index is a candidate; sample evenly.
	var mids []int
	for n := 1; n <= len(ref.Sink.Records); n++ {
		if _, ok := boundary[n]; !ok {
			mids = append(mids, n)
		}
	}
	points = append(points, stride(mids, maxMidOp)...)

	// Snapshot anchors ride along (deduplicated): crashing right at a
	// checkpoint write exercises recovery from the freshest snapshot with an
	// empty tail.
	seen := make(map[int]bool, len(points))
	for _, p := range points {
		seen[p] = true
	}
	for _, sn := range ref.Sink.Snapshots {
		if !seen[sn.Records] {
			seen[sn.Records] = true
			points = append(points, sn.Records)
		}
	}
	return points, boundary
}

// sortInts orders crash points ascending.
var sortInts = sort.Ints

// stride picks at most max elements of a evenly, always keeping the first
// and last.
func stride(a []int, max int) []int {
	if len(a) <= max || max <= 0 {
		return append([]int(nil), a...)
	}
	if max == 1 {
		return []int{a[len(a)-1]}
	}
	out := make([]int, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, a[i*(len(a)-1)/(max-1)])
	}
	return out
}

package core

import (
	"errors"
	"sync"
)

// This file is the commit pipeline of the durable write-ahead log (DESIGN.md
// §12): the group-commit state machine behind commitPersist — the durability
// boundary every top-level operation ends with — and ClosePersist, which
// retires the sink under the same leadership protocol.

// errPersistClosed is the commit-group outcome for operations whose
// durability boundary was reached after ClosePersist retired the sink; it
// deliberately never latches into persistErr (closing is not a failure).
var errPersistClosed = errors.New("core: persistence closed")

// commitGroup is the group-commit state machine (DESIGN.md §12). Its mutex
// is independent of persistMu and never held while acquiring it: the
// per-operation path goes persistMu → release → commit.mu, and the leader's
// flush goes commit.mu → release → persistMu (capture) → release → the
// sink's durability step.
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
// lock and no passMu held — test sinks read the orchestrator's state
// digest from inside Committed, and commit.mu is last in the lock order
// (docs/design/07-control-epoch.md).
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
// appended so far, returning the covered sequence. The capture happens
// under persistMu; the durability step — StageCommit's for a StagedSink,
// the sink's Committed otherwise — runs outside it, so concurrent
// operations keep appending records while the disk works. The caller's
// leadership (commitGroup.flushing) serializes the steps in capture order.
// Failures latch persistErr.
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
	step := o.persist.Committed
	if ss, ok := o.persist.(StagedSink); ok {
		step = ss.StageCommit()
	}
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

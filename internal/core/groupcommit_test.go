package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/testbed"
	"repro/internal/wal"
)

// groupSink is an in-memory StagedSink for exercising the commit-group
// protocol in isolation: the staged step sleeps for delay (modelling a slow
// fsync, so concurrent committers pile into groups), counts completed
// syncs, and fails with failWith when set. inFlight is observable so tests
// can prove the quiesce contract — Snapshot and Close must never overlap a
// staged step.
type groupSink struct {
	delay    time.Duration
	failWith error

	appends  atomic.Int64
	syncs    atomic.Int64
	inFlight atomic.Bool
}

func (s *groupSink) Append(rec wal.Record) error { s.appends.Add(1); return nil }
func (s *groupSink) Committed() error            { return s.StageCommit()() }
func (s *groupSink) Snapshot(seq uint64, b []byte) error {
	if s.inFlight.Load() {
		return errors.New("snapshot overlapped a staged step")
	}
	return nil
}
func (s *groupSink) StageCommit() func() error {
	return func() error {
		s.inFlight.Store(true)
		if s.delay > 0 {
			time.Sleep(s.delay)
		}
		s.inFlight.Store(false)
		if s.failWith != nil {
			return s.failWith
		}
		s.syncs.Add(1)
		return nil
	}
}

// groupEnv builds a minimal orchestrator over the given sink. The commit
// path never touches the testbed, so the default small topology is fine.
func groupEnv(t *testing.T, cfg Config, sink Sink) *Orchestrator {
	t.Helper()
	s := sim.NewSimulator(1)
	tb, err := testbed.New(testbed.Default(), s.Rand())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Persist = sink
	return New(cfg, tb, s, monitor.NewStore(128))
}

type groupPayload struct{ N int }

func (p *groupPayload) wire(c *wal.Codec) { wal.Int(c, &p.N) }

// TestGroupCommitSoloSynchronous proves the lone-writer fallback: with no
// concurrency, every operation's commit is a synchronous group of one —
// exactly the pre-group-commit per-op fsync behaviour — and the counters
// say so.
func TestGroupCommitSoloSynchronous(t *testing.T) {
	sink := &groupSink{}
	o := groupEnv(t, Config{}, sink)
	const ops = 5
	for i := 0; i < ops; i++ {
		o.appendRecord("test", &groupPayload{N: i})
		o.commitPersist()
	}
	st := o.PersistStatus()
	if st.Fsyncs != ops || st.CommitOps != ops {
		t.Fatalf("solo: fsyncs=%d commitOps=%d, want %d each", st.Fsyncs, st.CommitOps, ops)
	}
	if st.MaxGroup != 1 {
		t.Fatalf("solo: maxGroup=%d, want 1", st.MaxGroup)
	}
	if st.DurableSeq != st.LastSeq || st.LastSeq != ops {
		t.Fatalf("solo: durable=%d last=%d, want %d", st.DurableSeq, st.LastSeq, ops)
	}
	// A commit with no new records is covered by the last fsync and must
	// not pay another one.
	o.commitPersist()
	if st := o.PersistStatus(); st.Fsyncs != ops {
		t.Fatalf("empty commit fsynced: %d, want %d", st.Fsyncs, ops)
	}
}

// TestGroupCommitBatchesConcurrentWriters proves the amortization: with a
// slow staged fsync and many concurrent committers, operations arriving
// during a flush are covered by the next leader's single fsync, so the
// fsync count lands well below the operation count while every operation
// still returns durable.
func TestGroupCommitBatchesConcurrentWriters(t *testing.T) {
	sink := &groupSink{delay: 2 * time.Millisecond}
	o := groupEnv(t, Config{}, sink)
	const workers, iters = 16, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				o.appendRecord("test", &groupPayload{N: w*iters + i})
				o.commitPersist()
			}
		}(w)
	}
	wg.Wait()
	st := o.PersistStatus()
	if st.Error != "" {
		t.Fatalf("latched error: %s", st.Error)
	}
	if st.CommitOps != workers*iters {
		t.Fatalf("commitOps=%d, want %d", st.CommitOps, workers*iters)
	}
	if st.Fsyncs >= st.CommitOps {
		t.Fatalf("no amortization: %d fsyncs for %d ops", st.Fsyncs, st.CommitOps)
	}
	if got := sink.syncs.Load(); uint64(got) != st.Fsyncs {
		t.Fatalf("sink saw %d syncs, status says %d", got, st.Fsyncs)
	}
	if st.DurableSeq != st.LastSeq {
		t.Fatalf("quiesced but durable=%d < last=%d", st.DurableSeq, st.LastSeq)
	}
	t.Logf("%d ops, %d fsyncs, max group %d", st.CommitOps, st.Fsyncs, st.MaxGroup)
}

// TestGroupCommitFollowerObservesLeaderError is the error-propagation edge
// case: when the leader's fsync fails, every member of the group — and
// every later committer — must observe the failure and return instead of
// hanging on a durability that will never come; the error latches exactly
// like a per-op fsync failure always has.
func TestGroupCommitFollowerObservesLeaderError(t *testing.T) {
	sinkErr := errors.New("disk gone")
	sink := &groupSink{delay: 2 * time.Millisecond, failWith: sinkErr}
	o := groupEnv(t, Config{}, sink)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o.appendRecord("test", &groupPayload{N: w})
			o.commitPersist()
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("group members hung after the leader's fsync failed")
	}
	st := o.PersistStatus()
	if st.Error == "" {
		t.Fatal("leader fsync failure did not latch")
	}
	if st.DurableSeq != 0 {
		t.Fatalf("durable advanced to %d past a failed fsync", st.DurableSeq)
	}
	if sink.syncs.Load() != 0 {
		t.Fatalf("sink recorded %d successful syncs", sink.syncs.Load())
	}
	// Later operations must not block or fsync: persistence is disabled.
	o.appendRecord("test", &groupPayload{N: 99})
	o.commitPersist()
	if got := o.PersistStatus(); got.Fsyncs != 0 {
		t.Fatalf("commit after latched error fsynced: %+v", got)
	}
}

// TestClosePersistRacesCommitGroup drives ClosePersist into concurrent
// committers on a slow staged sink: close must wait out the in-flight
// flush (never overlapping a staged step — that is the quiesce contract a
// real WAL close needs, since Close touches the same file handle), wake
// every blocked member, and leave later commits as silent no-ops.
func TestClosePersistRacesCommitGroup(t *testing.T) {
	sink := &groupSink{delay: time.Millisecond}
	o := groupEnv(t, Config{}, sink)
	const workers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				o.appendRecord("test", &groupPayload{N: w*1000 + i})
				o.commitPersist()
			}
		}(w)
	}
	time.Sleep(5 * time.Millisecond) // let groups form
	closed := 0
	err := o.ClosePersist(func() error {
		if sink.inFlight.Load() {
			t.Error("ClosePersist overlapped a staged flush")
		}
		closed++
		return nil
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if closed != 1 {
		t.Fatalf("closeFn ran %d times", closed)
	}
	st := o.PersistStatus()
	if st.Enabled {
		t.Fatal("still enabled after ClosePersist")
	}
	if st.Error != "" {
		t.Fatalf("close latched an error: %s", st.Error)
	}
	// Post-close commits are no-ops, not errors.
	before := st.Fsyncs
	o.appendRecord("test", &groupPayload{N: -1})
	o.commitPersist()
	if got := o.PersistStatus(); got.Fsyncs != before || got.Error != "" {
		t.Fatalf("post-close commit not a no-op: %+v", got)
	}
}

// TestGroupCommitChurnStress is the full-stack soak the recovery CI job
// runs under -race -count=2: Submit/SubmitBatch/Delete churn from many
// goroutines against a real group-committed WAL with the invariant auditor
// armed, an AuditSweep barrier mid-churn and at the end, and a final
// recovery proving the group-committed log replays to an audit-clean
// registry of the same shape.
func TestGroupCommitChurnStress(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Overbook:            true,
		Risk:                0.9,
		AdmissionLoadFactor: 0.5,
		PLMNLimit:           2048,
		HistoryLimit:        128,
		Shards:              8,
		Audit:               true,
	}
	s := sim.NewSimulator(17)
	tb, err := testbed.New(testbed.Config{
		ENBs: 4, MaxPLMNs: 2048, CoreHosts: 16, EdgeHosts: 8,
		MECHosts: 2, MECHostCPUs: 32,
	}, s.Rand())
	if err != nil {
		t.Fatal(err)
	}
	w, err := wal.Create(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Persist = WALSink(w)
	o := New(cfg, tb, s, monitor.NewStore(1024))

	workers, iters := 8, 30
	if testing.Short() {
		workers, iters = 4, 10
	}
	mk := func(tenant string, mbps, latency float64) slice.Request {
		return slice.Request{
			Tenant: tenant,
			SLA: slice.SLA{
				ThroughputMbps: mbps, MaxLatencyMs: latency,
				Duration: time.Hour, PriceEUR: 10, PenaltyEUR: 1,
			},
		}
	}
	churn := func(half int) {
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				tenant := fmt.Sprintf("gc-%d-%d", half, g)
				for i := 0; i < iters; i++ {
					switch i % 3 {
					case 0:
						sl, err := o.Submit(mk(tenant, 2, 50), nil)
						if err != nil {
							t.Error(err)
							return
						}
						if sl.State() != slice.StateRejected {
							if err := o.Delete(sl.ID()); err != nil {
								t.Error(err)
								return
							}
						}
					case 1:
						items := []BatchItem{
							{Request: mk(tenant, 2, 50)},
							{Request: mk(tenant, 1, 50)},
						}
						out, err := o.SubmitBatch(items, BatchFCFS)
						if err != nil {
							t.Error(err)
							return
						}
						for _, sl := range out {
							if sl != nil && sl.State() != slice.StateRejected {
								if err := o.Delete(sl.ID()); err != nil {
									t.Error(err)
									return
								}
							}
						}
					default:
						// Unmeetable latency: the certain-reject path still
						// writes (and group-commits) its reject record.
						sl, err := o.Submit(mk(tenant, 2, 0.01), nil)
						if err != nil {
							t.Error(err)
							return
						}
						if sl.State() != slice.StateRejected {
							t.Error("unmeetable latency admitted")
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}

	churn(0)
	// Mid-churn barrier: the books must balance while the WAL keeps going.
	o.AuditSweep()
	if vs := o.Auditor().Violations(); len(vs) != 0 {
		t.Fatalf("invariant violations at mid-churn barrier: %v", vs)
	}
	churn(1)
	o.AuditSweep()
	if vs := o.Auditor().Violations(); len(vs) != 0 {
		t.Fatalf("invariant violations after churn: %v", vs)
	}
	if n := o.ActiveCount(); n != 0 {
		t.Fatalf("%d slices still active after churn", n)
	}

	st := o.PersistStatus()
	if st.Error != "" {
		t.Fatalf("persistence latched an error: %s", st.Error)
	}
	if st.DurableSeq != st.LastSeq {
		t.Fatalf("quiesced but durable=%d < last=%d", st.DurableSeq, st.LastSeq)
	}
	if st.CommitOps == 0 || st.Fsyncs == 0 {
		t.Fatalf("counters dead: %+v", st)
	}
	t.Logf("churn: %d records, %d commit ops, %d fsyncs, max group %d",
		st.LastSeq, st.CommitOps, st.Fsyncs, st.MaxGroup)
	regSize := len(o.List())
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := sim.NewSimulator(18)
	tb2, err := testbed.New(testbed.Config{
		ENBs: 4, MaxPLMNs: 2048, CoreHosts: 16, EdgeHosts: 8,
		MECHosts: 2, MECHostCPUs: 32,
	}, s2.Rand())
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Persist = nil
	o2, w2, err := Recover(cfg2, tb2, s2, monitor.NewStore(1024), dir)
	if err != nil {
		t.Fatalf("recover from group-committed log: %v", err)
	}
	defer w2.Close()
	o2.AuditSweep()
	if vs := o2.Auditor().Violations(); len(vs) != 0 {
		t.Fatalf("recovered state fails audit: %v", vs)
	}
	if got := len(o2.List()); got != regSize {
		t.Fatalf("recovered registry has %d entries, churned run had %d", got, regSize)
	}
}

package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ctrl"
	"repro/internal/invariant"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/testbed"
	"repro/internal/traffic"
	"repro/internal/wal"
)

// innerDomain names an embedded ctrl.Domain so the decorators below keep
// its Domain method (a field named Domain would hide it).
type innerDomain = ctrl.Domain

// stagedRadio decorates the radio domain through ctrl.Set.Wrap: before each
// Reserve it asks stage, and a non-nil cause fails that Reserve without
// touching the substrate.
type stagedRadio struct {
	innerDomain
	stage func(tx ctrl.Tx) *slice.RejectionCause
}

func (d *stagedRadio) Reserve(tx ctrl.Tx) (ctrl.Grant, *slice.RejectionCause) {
	if cause := d.stage(tx); cause != nil {
		return nil, cause
	}
	return d.innerDomain.Reserve(tx)
}

// countedRadio decorates the radio domain through ctrl.Set.Wrap and counts
// the Reserves it refuses: with overbooking on, each one sends its install
// to the squeeze.
type countedRadio struct {
	innerDomain
	refused *atomic.Int64
}

func (d countedRadio) Reserve(tx ctrl.Tx) (ctrl.Grant, *slice.RejectionCause) {
	g, cause := d.innerDomain.Reserve(tx)
	if cause != nil {
		d.refused.Add(1)
	}
	return g, cause
}

// recoversToLive recovers the sink's log onto a fresh testbed twice — from
// its start, and from its last checkpoint plus the tail — and requires each
// rebuilt state to audit clean and to equal the live run's digest.
func recoversToLive(t *testing.T, cfg Config, tcfg testbed.Config, sink *memSink, want []byte) {
	t.Helper()
	all := uint64(len(sink.records))
	for name, img := range map[string]*wal.Recovered{
		"whole log":         {Records: sink.records, LastSeq: all},
		"checkpoint + tail": {SnapshotSeq: sink.snapSeq, Snapshot: sink.snap, Records: sink.records[sink.snapSeq:], LastSeq: all},
	} {
		s := sim.NewSimulator(1)
		tb, err := testbed.New(tcfg, s.Rand())
		if err != nil {
			t.Fatal(err)
		}
		rec, _, err := RecoverFromWAL(cfg, tb, s, monitor.NewStore(256), img)
		if err != nil {
			t.Errorf("%s: recovery failed: %v", name, err)
			continue
		}
		if got := rec.StateDigest(); !bytes.Equal(got, want) {
			t.Errorf("%s: recovered digest differs from the live run's:\nlive      %s\nrecovered %s", name, want, got)
		}
		rec.AuditSweep()
		if v := rec.Auditor().Violations(); len(v) != 0 {
			t.Errorf("%s: recovered state fails the audit: %d violations, first %+v", name, len(v), v[0])
		}
	}
}

// TestCheckpointCutsNoInstallInFlight stages the race in which a checkpoint
// used to cut inside an install: the newcomer's first radio Reserve fails,
// so its install turns to the overbooking squeeze, and a control epoch —
// started from inside that Reserve — checkpoints (SnapshotEvery 1) while the
// install is still holding a PLMN that no record names. Such a checkpoint
// saves the newcomer's PLMN, and the admit record that follows it cannot be
// replayed on top. Installs now hold passMu's shared side while in flight
// and a checkpoint its exclusive side, so the epoch waits for the install
// (or the install for the epoch), and the checkpoint plus the log's tail
// recovers audit-clean to the live state.
func TestCheckpointCutsNoInstallInFlight(t *testing.T) {
	tcfg := testbed.Default()
	cfg := Config{Overbook: true, Risk: 0.9, SnapshotEvery: 1, Audit: true}
	s := sim.NewSimulator(1)
	tb, err := testbed.New(tcfg, s.Rand())
	if err != nil {
		t.Fatal(err)
	}
	var (
		o         *Orchestrator
		newcomer  slice.ID
		staged    bool
		epochDone = make(chan struct{})
	)
	stage := func(tx ctrl.Tx) *slice.RejectionCause {
		if tx.Slice != newcomer || staged {
			return nil
		}
		staged = true
		before := o.epochs.Load()
		go func() {
			o.RunEpoch()
			close(epochDone)
		}()
		// Wait until the epoch has started, or until it is evidently held
		// back by the install in flight.
		for deadline := time.Now().Add(100 * time.Millisecond); o.epochs.Load() == before && time.Now().Before(deadline); {
			time.Sleep(50 * time.Microsecond)
		}
		return slice.Rejectf(slice.RejectRadioCapacity, "ran", "ran: staged full cell")
	}
	tb.Ctrl.Wrap = func(d ctrl.Domain) ctrl.Domain {
		if d.Domain() != "ran" {
			return d
		}
		return &stagedRadio{innerDomain: d, stage: stage}
	}
	sink := &memSink{}
	live := cfg
	live.Persist = sink
	o = New(live, tb, s, monitor.NewStore(256))

	for i := 0; i < 3; i++ {
		if sl, err := o.Submit(req("standing", 10, 50, 2*time.Hour, 100), traffic.NewConstant(4, 0, nil)); err != nil || sl.State() == slice.StateRejected {
			t.Fatalf("standing slice %d: %v %v", i, err, sl)
		}
	}
	if err := s.RunFor(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	o.RunEpoch()

	newcomer = slice.ID(fmt.Sprintf("s-%d", o.seq.Load()+1))
	sl, err := o.Submit(req("newcomer", 10, 50, time.Hour, 100), nil)
	if err != nil || sl.ID() != newcomer || sl.State() == slice.StateRejected {
		t.Fatalf("newcomer: %v %v", err, sl)
	}
	<-epochDone
	if !staged {
		t.Fatal("the newcomer's radio Reserve never ran")
	}
	if st := o.PersistStatus(); st.Error != "" {
		t.Fatalf("persistence latched an error: %s", st.Error)
	}
	o.AuditSweep()
	if v := o.Auditor().Violations(); len(v) != 0 {
		t.Fatalf("live run not invariant-clean: %d violations, first %+v", len(v), v[0])
	}
	recoversToLive(t, cfg, tcfg, sink, o.StateDigest())
}

// TestExactAuditUnderConcurrency holds the auditor to the exact books with
// every verb that takes passMu racing: eight submitters (three of them
// through SubmitBatch) and deleters on a radio small enough that
// admissions squeeze, against control epochs that checkpoint every time, a
// flapping uplink and standalone audit sweeps. Every sweep runs with no
// install in flight, so a single violation — a leak, or a ledger that is not
// the sum of its live entries — fails the test, and the log the run leaves
// recovers to the live digest. The clock stands still during the concurrent
// part and the run finishes fewer slices than the history holds. Run with
// -race.
func TestExactAuditUnderConcurrency(t *testing.T) {
	tcfg := testbed.Default()
	tcfg.MaxPLMNs = 64
	tcfg.RedundantTransport = true
	cfg := Config{Overbook: true, Risk: 0.9, Shards: 16, PLMNLimit: 64, SnapshotEvery: 1, Audit: true}
	s := sim.NewSimulator(1)
	tb, err := testbed.New(tcfg, s.Rand())
	if err != nil {
		t.Fatal(err)
	}
	var squeezes atomic.Int64
	tb.Ctrl.Wrap = func(d ctrl.Domain) ctrl.Domain {
		if d.Domain() != "ran" {
			return d
		}
		return countedRadio{innerDomain: d, refused: &squeezes}
	}
	sink := &memSink{}
	live := cfg
	live.Persist = sink
	live.AuditOnViolation = func(v invariant.Violation) { t.Errorf("audit violation: %+v", v) }
	o := New(live, tb, s, monitor.NewStore(256))

	const workers, perWorker, batchers, standing = 8, 24, 3, 8
	var pool [workers][]slice.ID
	for i := 0; i < standing; i++ {
		mbps := float64(6 + i%4)
		sl, err := o.Submit(req("standing", mbps, 50, 2*time.Hour, 100),
			traffic.NewConstant(mbps/3, mbps/6, rand.New(rand.NewSource(int64(i)))))
		if err != nil || sl.State() == slice.StateRejected {
			t.Fatalf("standing slice %d: %v %v", i, err, sl)
		}
		pool[i%workers] = append(pool[i%workers], sl.ID())
	}
	if err := s.RunFor(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	o.RunEpoch()
	o.RunEpoch()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, mine []slice.ID) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + w)))
			for i := 0; i < perWorker; i++ {
				if len(mine) > 0 && rng.Intn(3) == 0 {
					k := rng.Intn(len(mine))
					if err := o.Delete(mine[k]); err != nil {
						t.Errorf("delete %s: %v", mine[k], err)
					}
					mine = append(mine[:k], mine[k+1:]...)
					continue
				}
				var admitted []*slice.Slice
				if w < batchers {
					items := make([]BatchItem, 1+rng.Intn(3))
					for k := range items {
						items[k].Request = req(fmt.Sprintf("b%d", w), 4+8*rng.Float64(), 50, time.Hour, 10+rng.Float64())
					}
					out, err := o.SubmitBatch(items, BatchDensity)
					if err != nil {
						t.Errorf("batch: %v", err)
						return
					}
					admitted = out
				} else {
					sl, err := o.Submit(req(fmt.Sprintf("t%d", w), 4+8*rng.Float64(), 50, time.Hour, 10+rng.Float64()), nil)
					if err != nil {
						t.Errorf("submit: %v", err)
						return
					}
					admitted = []*slice.Slice{sl}
				}
				for _, sl := range admitted {
					if sl.State() != slice.StateRejected {
						mine = append(mine, sl.ID())
					}
				}
			}
		}(w, pool[w])
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for epochs := 0; ; epochs++ {
		select {
		case <-done:
			goto quiet
		default:
		}
		o.RunEpoch()
		o.AuditSweep()
		if epochs%2 == 0 {
			if _, err := o.HandleLinkFailure(testbed.ENBName(0), testbed.Switch); err != nil {
				t.Fatal(err)
			}
		} else if err := o.RestoreLink(testbed.ENBName(0), testbed.Switch); err != nil {
			t.Fatal(err)
		}
	}
quiet:
	o.RunEpoch() // the last checkpoint
	if st := o.PersistStatus(); st.Error != "" {
		t.Fatalf("persistence latched an error: %s", st.Error)
	}
	o.AuditSweep()
	if g := o.Gain(); g.Rejected == 0 || squeezes.Load() == 0 || sink.snap == nil {
		t.Fatalf("workload lost its tension: %+v, %d squeezes, checkpoint taken: %v", g, squeezes.Load(), sink.snap != nil)
	}
	recoversToLive(t, cfg, tcfg, sink, o.StateDigest())
}

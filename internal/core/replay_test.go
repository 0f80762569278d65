package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/testbed"
	"repro/internal/traffic"
	"repro/internal/transport"
	"repro/internal/wal"
)

// memSink is an in-memory Sink that keeps every record and checkpoint.
type memSink struct {
	mu      sync.Mutex
	records []wal.Record
	snapSeq uint64
	snap    []byte
}

func (s *memSink) Append(rec wal.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.records = append(s.records, rec)
	return nil
}
func (s *memSink) Committed() error { return nil }
func (s *memSink) Snapshot(seq uint64, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snapSeq, s.snap = seq, append([]byte(nil), blob...)
	return nil
}

// probeSink is a memSink that hands every record to check as it is appended,
// before buffering it.
type probeSink struct {
	memSink
	check func(wal.Record)
}

func (p *probeSink) Append(rec wal.Record) error {
	p.check(rec)
	return p.memSink.Append(rec)
}

// TestRecordAppendedBeforeEffect holds the order every transition takes —
// decide, append, apply: when a record reaches the sink, the effect it logs
// is not yet visible, so no other operation can act on the transition and be
// logged ahead of it. A link restore finds the link still down, a failure
// finds it still up, a degradation finds the old capacity and a teardown
// finds the slice's PRBs still held.
func TestRecordAppendedBeforeEffect(t *testing.T) {
	sink := &probeSink{check: func(wal.Record) {}}
	s, o := replayEnv(t, Config{Persist: sink})
	from, to := testbed.ENBName(0), testbed.Switch
	link := func() transport.Link {
		l, ok := o.tb.Transport.Link(from, to)
		if !ok {
			t.Fatalf("no link %s->%s", from, to)
		}
		return l
	}
	sl, err := o.Submit(req("t", 10, 50, time.Hour, 100), nil)
	if err != nil || sl.State() == slice.StateRejected {
		t.Fatalf("submit: %v %v", err, sl)
	}
	if err := s.RunFor(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	plmn, capacity := sl.PLMN(), link().CapacityMbps

	probed := map[string]bool{}
	sink.check = func(r wal.Record) {
		rec, _, err := decodeLogRecord(r)
		if err != nil {
			t.Fatalf("record %d: %v", r.Seq, err)
		}
		switch rec := rec.(type) {
		case *linkRecord:
			l := link()
			switch {
			case rec.Kind == "restore" && l.Up:
				t.Error("link restore appended after the link came back up")
			case rec.Kind == "fail" && !l.Up:
				t.Error("link failure appended after the link went down")
			case rec.Kind == "degrade" && l.CapacityMbps != capacity:
				t.Errorf("link degradation appended after the capacity moved to %.1f Mbps", l.CapacityMbps)
			}
			probed[rec.Kind] = true
		case *teardownRecord:
			for _, e := range o.tb.RAN.All() {
				if n, ok := e.Reservation(plmn); !ok || n == 0 {
					t.Errorf("teardown appended after %s released the slice's PRBs", e.Name())
				}
			}
			probed["teardown"] = true
		}
	}
	if _, err := o.HandleLinkDegradation(from, to, capacity/2); err != nil {
		t.Fatal(err)
	}
	if _, err := o.HandleLinkFailure(from, to); err != nil {
		t.Fatal(err)
	}
	if err := o.RestoreLink(from, to); err != nil {
		t.Fatal(err)
	}
	if err := o.Delete(sl.ID()); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"degrade", "fail", "restore", "teardown"} {
		if !probed[kind] {
			t.Errorf("no %s record reached the sink", kind)
		}
	}
}

// replayEnv is a fresh orchestrator on a default-environment testbed with
// the backup switch (so a logged re-route has somewhere to go).
func replayEnv(t testing.TB, cfg Config) (*sim.Simulator, *Orchestrator) {
	t.Helper()
	s := sim.NewSimulator(1)
	tcfg := testbed.Default()
	tcfg.RedundantTransport = true
	tb, err := testbed.New(tcfg, s.Rand())
	if err != nil {
		t.Fatal(err)
	}
	return s, New(cfg, tb, s, monitor.NewStore(256))
}

// allRecordTypesRun drives one small deterministic run that logs every one
// of the nine record types from every live producer — both resize producers
// (the engine and a degradation shrink) and all three link kinds — and
// returns the log with the number of leading records (admissions, the
// rejection, activations) that populate a registry the later records act
// on, and the run's final state digest.
func allRecordTypesRun(t testing.TB) (records []wal.Record, populated int, digest []byte) {
	t.Helper()
	sink := &memSink{}
	s, o := replayEnv(t, Config{Overbook: true, Risk: 0.9, Persist: sink})
	var ids []slice.ID
	for _, mbps := range []float64{30, 20, 10} {
		sl, err := o.Submit(req("t", mbps, 50, 2*time.Hour, 100), traffic.NewConstant(mbps/3, 0, nil))
		if err != nil || sl.State() == slice.StateRejected {
			t.Fatalf("fixture submit %v Mbps: %v %v", mbps, err, sl)
		}
		ids = append(ids, sl.ID())
	}
	if sl, err := o.Submit(req("t", 1<<20, 50, time.Hour, 100), nil); err != nil || sl.State() != slice.StateRejected {
		t.Fatalf("fixture reject: %v %v", err, sl)
	}
	if err := s.RunFor(15 * time.Second); err != nil { // three activations
		t.Fatal(err)
	}
	populated = len(sink.records)
	for i := 0; i < 3; i++ {
		o.RunEpoch() // epoch records, and the resizes overbooking applies
	}
	if _, err := o.HandleLinkFailure(testbed.ENBName(0), testbed.Switch); err != nil { // link + reroutes
		t.Fatal(err)
	}
	// With the primary uplink down the backup is the only way out, so
	// degrading it leaves its victims no alternative at full bandwidth: they
	// take the shrink branch — an interim reroute at the fair share, then a
	// resize that leaves the paths to it.
	rep, err := o.HandleLinkDegradation(testbed.ENBName(0), testbed.BackupSwitch, 8)
	if err != nil || len(rep.Dropped) != 0 {
		t.Fatalf("degradation: %+v, %v", rep, err)
	}
	if err := o.RestoreLink(testbed.ENBName(0), testbed.Switch); err != nil {
		t.Fatal(err)
	}
	if err := o.Delete(ids[0]); err != nil { // teardown
		t.Fatal(err)
	}
	o.Shutdown()
	var shrinks, interims int
	for _, r := range sink.records[populated:] {
		rec, events, err := decodeLogRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		switch rec := rec.(type) {
		case *resizeRecord:
			if !rec.ResizePaths {
				shrinks++
			}
		case *rerouteRecord:
			if len(events) == 0 {
				interims++
			}
		}
	}
	if shrinks == 0 || interims == 0 {
		t.Fatalf("the degradation logged %d shrink resizes and %d interim reroutes, want both", shrinks, interims)
	}
	return sink.records, populated, o.StateDigest()
}

// quantumHolds reports whether every cell sl holds PRBs on would size a
// resize to mbps, split evenly over them, to the PRBs it already holds (at
// least one each): the radio quantum swallows that resize.
func quantumHolds(o *Orchestrator, sl *slice.Slice, mbps float64) bool {
	prbs := sl.Allocation().PRBs
	for name, held := range prbs {
		e, ok := o.tb.RAN.Get(name)
		if !ok || max(e.PRBsForThroughput(mbps/float64(len(prbs))), 1) != held {
			return false
		}
	}
	return true
}

// reconfigureAndRelease is the stage a recovered orchestrator (built with
// Config.Audit) must survive: every live slice's binding names exactly its
// live reservations, and every live slice is resized and then deleted
// through the normal verbs. Recovery imposed the substrate outcomes through
// the controllers' Impose verbs; if one of them made a reservation without
// binding its handle, the binding check fails and the resize is refused (no
// reconfiguration happens), and if the release leaves a reservation behind,
// its handle in the binding the slice held is still live, and the audit and
// the emptiness checks find it.
func reconfigureAndRelease(t *testing.T, o *Orchestrator) {
	t.Helper()
	checkBindings(t, o, "recovered")
	var all []*slice.Slice
	o.lockAll()
	for _, m := range o.rosterAllLocked() {
		all = append(all, m.s)
	}
	o.unlockAll()
	var live []slice.ID
	for _, sl := range all {
		switch sl.State() {
		case slice.StateRejected, slice.StateTerminated:
			continue
		}
		id, contract := sl.ID(), sl.SLA().ThroughputMbps
		live = append(live, id)
		// Down to the floor, then up to the contract: unless hysteresis
		// swallows both (a contract within 5 % of the floor) or the radio
		// quantum does (both size to the PRBs the slice holds), one must
		// move.
		down, err := o.Resize(id, floorMbps)
		if err != nil {
			t.Fatalf("resize %s down: %v", id, err)
		}
		up, err := o.Resize(id, contract)
		if err != nil {
			t.Fatalf("resize %s up: %v", id, err)
		}
		if !down && !up && contract-floorMbps >= contract*o.cfg.ReconfigThreshold &&
			!(quantumHolds(o, sl, floorMbps) && quantumHolds(o, sl, contract)) {
			t.Errorf("recovered slice %s (%s, %.2f of %.2f Mbps) cannot be resized", id, sl.State(), sl.AllocatedMbps(), contract)
		}
	}
	if len(live) == 0 {
		t.Fatal("nothing live to reconfigure")
	}
	checkBindings(t, o, "resized")
	// The bindings as the slices hold them before the deletes (the teardown
	// drops each slice's own): a release must kill every handle in them.
	held := bindingsOf(o)
	for _, id := range live {
		if err := o.Delete(id); err != nil {
			t.Fatalf("delete %s: %v", id, err)
		}
		b := held[id]
		if len(b.Cells()) == 0 || len(b.Paths()) == 0 {
			t.Errorf("slice %s was bound to %d cells and %d paths", id, len(b.Cells()), len(b.Paths()))
		}
		for _, h := range b.Cells() {
			if prbs, live := h.PRBs(); live {
				t.Errorf("released slice %s still holds %d PRBs on %s", id, prbs, h.Cell().Name())
			}
		}
		for _, r := range b.Paths() {
			if o.tb.Transport.Holds(r) {
				t.Errorf("released slice %s still holds path %s", id, r.ID)
			}
		}
	}
	o.AuditSweep()
	if v := o.Auditor().Violations(); len(v) != 0 {
		t.Errorf("after resize and release: %d violations, first %+v", len(v), v[0])
	}
	for _, e := range o.tb.RAN.All() {
		if msgs := e.AuditConservation(); len(msgs) != 0 || e.FreePRBs() != e.TotalPRBs() {
			t.Errorf("%s after release: %d of %d PRBs free, %v", e.Name(), e.FreePRBs(), e.TotalPRBs(), msgs)
		}
	}
	if msgs, left := o.tb.Transport.AuditConservation(), o.tb.Transport.Reservations(); len(msgs) != 0 || len(left) != 0 {
		t.Errorf("transport after release: %v, %d reservations left", msgs, len(left))
	}
	for _, dc := range o.tb.Region.All() {
		if msgs := dc.AuditConservation(); len(msgs) != 0 || dc.Capacity().Stacks != 0 {
			t.Errorf("%s after release: %d stacks, %v", dc.Name(), dc.Capacity().Stacks, msgs)
		}
	}
}

// TestRecoveredSlicesReconfigureAndRelease replays a log holding every record
// type from every live producer — admits, epoch resizes, a link failure's
// re-routes, a degradation's shrink, a restore, a teardown — checks the state
// it rebuilds is byte-equal to the live run's, and runs the
// resize-and-release stage on what comes back.
func TestRecoveredSlicesReconfigureAndRelease(t *testing.T) {
	records, _, want := allRecordTypesRun(t)
	cfg := Config{Overbook: true, Risk: 0.9, Audit: true}
	_, fresh := replayEnv(t, Config{})
	o, rep, err := RecoverFromWAL(cfg, fresh.tb, fresh.clock, nil, &wal.Recovered{Records: records, LastSeq: uint64(len(records))})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LiveSlices != 2 {
		t.Fatalf("recovered %d live slices, want the 2 the run left", rep.LiveSlices)
	}
	if got := o.StateDigest(); !bytes.Equal(got, want) {
		t.Fatalf("recovered digest differs from the live run's:\nlive      %s\nrecovered %s", want, got)
	}
	reconfigureAndRelease(t, o)
}

// FuzzApplyRecord: whatever a CRC-valid record says, replaying it onto a
// populated registry returns — an error or success — and never panics.
// Seeds are every record of the fixture run, so each of the nine types comes
// from each of its live producers.
func FuzzApplyRecord(f *testing.F) {
	records, populated, _ := allRecordTypesRun(f)
	seeded := map[string]bool{}
	for _, r := range records {
		seeded[r.Type] = true
		f.Add(r.Type, r.Payload)
	}
	for _, typ := range []string{recAdmit, recReject, recActivate, recTeardown, recResize, recReroute, recEpoch, recLink, recShutdown} {
		if !seeded[typ] {
			f.Fatalf("fixture run logged no %q record to seed with", typ)
		}
	}
	f.Fuzz(func(t *testing.T, typ string, payload []byte) {
		_, o := replayEnv(t, Config{Overbook: true, Risk: 0.9})
		for _, r := range records[:populated] {
			if err := o.applyRecord(r); err != nil {
				t.Fatalf("fixture record %d (%s): %v", r.Seq, r.Type, err)
			}
		}
		_ = o.applyRecord(wal.Record{Seq: uint64(populated) + 1, Type: typ, Payload: payload})
	})
}

// pr15 reads a payload the parent commit (PR 15, JSON payloads) really wrote:
// the first admit record of allRecordTypesRun, and a one-slice checkpoint.
func pr15(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReplayRefusesWhatItCannotRead covers the recovery paths that must
// error rather than panic or misread: an epoch item that counts a slice
// which was never admitted, a teardown of a slice that holds nothing, a
// rejection without a cause, and payloads or checkpoints that are not in
// this build's format — the parent commit's JSON, a later version, nothing
// at all — each refused with an error naming the version that was wanted.
func TestReplayRefusesWhatItCannotRead(t *testing.T) {
	records, populated, _ := allRecordTypesRun(t)
	primed := func() *Orchestrator {
		_, o := replayEnv(t, Config{Overbook: true, Risk: 0.9})
		for _, r := range records[:populated] {
			if err := o.applyRecord(r); err != nil {
				t.Fatal(err)
			}
		}
		return o
	}
	rejected := slice.ID("s-4") // the fixture's fourth submission
	if sl, ok := primed().Get(rejected); !ok || sl.State() != slice.StateRejected {
		t.Fatalf("fixture drifted: %s is not the rejected slice", rejected)
	}
	nextVersion := append([]byte(nil), records[0].Payload...)
	nextVersion[0] = formatVersion + 1
	wanted := fmt.Sprintf("want format version %d", formatVersion)

	for _, tc := range []struct {
		name, typ string
		payload   []byte
		format    bool // must be errRecordFormat, naming the version wanted
	}{
		{"epoch counts a rejected slice", recEpoch,
			encodeRecord(&logPayload{rec: &epochRecord{Epoch: 1, Items: []epochItemRecord{{Slice: rejected, Demand: 1, Served: 1, Counted: true}}}}), false},
		{"teardown of a rejected slice", recTeardown, encodeRecord(&logPayload{rec: &teardownRecord{Slice: rejected, Reason: "x"}}), false},
		{"reject without a cause", recReject, encodeRecord(&logPayload{rec: &rejectRecord{Slice: slice.Persisted{ID: "s-9", State: slice.StateRejected}}}), false},
		{"PR-15 JSON admit", recAdmit, pr15(t, "pr15_admit.json"), true},
		{"next format version", recAdmit, nextVersion, true},
		{"empty payload", recTeardown, nil, true},
	} {
		err := primed().applyRecord(wal.Record{Seq: 99, Type: tc.typ, Payload: tc.payload})
		if err == nil {
			t.Errorf("%s: replayed without error", tc.name)
		} else if errors.Is(err, errRecordFormat) != tc.format || (tc.format && !strings.Contains(err.Error(), wanted)) {
			t.Errorf("%s: error %q, format error (%q) wanted: %v", tc.name, err, wanted, tc.format)
		}
	}

	// A data dir written by the parent commit fails recovery with the
	// explicit format error, from the checkpoint blob as from the log.
	old := &wal.Recovered{SnapshotSeq: 1, LastSeq: 1, Snapshot: pr15(t, "pr15_checkpoint.json")}
	_, o := replayEnv(t, Config{})
	if _, _, err := RecoverFromWAL(Config{}, o.tb, o.clock, nil, old); !errors.Is(err, errRecordFormat) || !strings.Contains(err.Error(), wanted) {
		t.Errorf("PR-15 JSON checkpoint: %v, want the format error", err)
	}
}

// TestConcurrentRunRecoversBitIdentical is the payoff of keeping the books
// in integers: eight goroutines submit, delete and cap slices on 16 shards
// while the test goroutine runs control epochs and checkpoints and, between
// epochs, fails and restores one uplink, so operations on different shards
// touch the ledger and the counters in one order and land in the log in
// another, and the writers' admissions race the link transitions — and
// replaying that log still rebuilds a state whose digest is byte-equal to
// the live one, with the ledger exactly the sum of the live entries.
// Recovery is checked from the start of the log and from the last
// checkpoint taken mid-run. The clock stands still during the concurrent
// part (a standing population activated beforehand is what the epochs
// measure), the radio grid is sized so PRBs never bind and the run finishes
// fewer slices than the history holds. Run with -race.
func TestConcurrentRunRecoversBitIdentical(t *testing.T) {
	cfg := Config{Overbook: true, Risk: 0.9, Shards: 16, PLMNLimit: 48, SnapshotEvery: 2, Audit: true}
	env := func(cfg Config) (*sim.Simulator, *Orchestrator) {
		s := sim.NewSimulator(1)
		tb, err := testbed.New(testbed.Config{ENBs: 4, ENBCarriers: 4, MaxPLMNs: 64, CoreHosts: 16, EdgeHosts: 8, RedundantTransport: true}, s.Rand())
		if err != nil {
			t.Fatal(err)
		}
		return s, New(cfg, tb, s, monitor.NewStore(256))
	}
	sink := &memSink{}
	live := cfg
	live.Persist = sink
	s, o := env(live)

	const workers, perWorker, standing = 8, 40, 24
	var pool [workers][]slice.ID
	for i := 0; i < standing; i++ {
		mbps := float64(2 + i%5)
		sl, err := o.Submit(req("standing", mbps, 50, 2*time.Hour, 100),
			traffic.NewConstant(mbps/2, mbps/4, rand.New(rand.NewSource(int64(i)))))
		if err != nil || sl.State() == slice.StateRejected {
			t.Fatalf("standing slice %d: %v %v", i, err, sl)
		}
		pool[i%workers] = append(pool[i%workers], sl.ID())
	}
	if err := s.RunFor(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := o.ActiveCount(); n != standing {
		t.Fatalf("%d of %d standing slices active", n, standing)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, mine []slice.ID) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < perWorker; i++ {
				r := req(fmt.Sprintf("t%d", w), 1+3*rng.Float64(), 50, time.Hour, 10+rng.Float64())
				switch op := rng.Intn(8); {
				case op == 0: // refused at the ledger
					r.SLA.ThroughputMbps = 1 << 20
				case op == 1: // reserved on the ledger, then refused by a domain
					r.SLA.MaxLatencyMs = 0.01
				case op <= 3 && len(mine) > 0:
					k := rng.Intn(len(mine))
					if _, err := o.SetProvisionCap(mine[k], float64(rng.Intn(4))); err != nil {
						t.Errorf("cap %s: %v", mine[k], err)
					}
					continue
				case op <= 5 && len(mine) > 0:
					k := rng.Intn(len(mine))
					if err := o.Delete(mine[k]); err != nil {
						t.Errorf("delete %s: %v", mine[k], err)
					}
					mine = append(mine[:k], mine[k+1:]...)
					continue
				}
				sl, err := o.Submit(r, nil)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if sl.State() != slice.StateRejected {
					mine = append(mine, sl.ID())
				}
			}
		}(w, pool[w])
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for epochs := 0; ; epochs++ {
		select {
		case <-done:
			if epochs < 2*cfg.SnapshotEvery {
				for ; epochs < 2*cfg.SnapshotEvery; epochs++ {
					o.RunEpoch()
				}
			}
			goto quiet
		default:
			o.RunEpoch()
			// The uplink's victims re-route over the backup switch; a writer
			// that routes over the uplink once it is back must be logged
			// after its restore.
			if epochs%2 == 0 {
				if _, err := o.HandleLinkFailure(testbed.ENBName(0), testbed.Switch); err != nil {
					t.Fatal(err)
				}
			} else if err := o.RestoreLink(testbed.ENBName(0), testbed.Switch); err != nil {
				t.Fatal(err)
			}
		}
	}
quiet:
	if st := o.PersistStatus(); st.Error != "" {
		t.Fatalf("persistence latched an error: %s", st.Error)
	}
	o.AuditSweep()
	if v := o.Auditor().Violations(); len(v) != 0 {
		t.Fatalf("live run not invariant-clean: %d violations, first %+v", len(v), v[0])
	}
	want := o.StateDigest()
	g := o.Gain()
	reroutes := 0
	for _, r := range sink.records {
		if r.Type == recReroute {
			reroutes++
		}
	}
	if g.Rejected == 0 || g.Reconfigurations == 0 || g.ViolationEpochs == 0 || sink.snap == nil || reroutes == 0 {
		t.Fatalf("workload lost its tension: %+v, checkpoint taken: %v, %d reroutes", g, sink.snap != nil, reroutes)
	}

	all := uint64(len(sink.records))
	for name, img := range map[string]*wal.Recovered{
		"whole log":         {Records: sink.records, LastSeq: all},
		"checkpoint + tail": {SnapshotSeq: sink.snapSeq, Snapshot: sink.snap, Records: sink.records[sink.snapSeq:], LastSeq: all},
	} {
		_, fresh := env(Config{})
		rec, _, err := RecoverFromWAL(cfg, fresh.tb, fresh.clock, nil, img)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := rec.StateDigest(); !bytes.Equal(got, want) {
			t.Errorf("%s: recovered digest differs from the live run's:\nlive      %s\nrecovered %s", name, want, got)
		}
		rec.AuditSweep()
		if v := rec.Auditor().Violations(); len(v) != 0 {
			t.Errorf("%s: recovered state fails the audit: %d violations, first %+v", name, len(v), v[0])
		}
		reconfigureAndRelease(t, rec)
	}
}

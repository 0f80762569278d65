package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/ctrl"
	"repro/internal/slice"
	"repro/internal/testbed"
	"repro/internal/traffic"
	"repro/internal/wal"
)

// checkBindings asserts that every live slice's binding resolves to exactly
// the substrate's live records: one live handle per cell the allocation holds
// PRBs on, each at the allocation's PRB count and each the cell's record for
// the slice's PLMN, and one live path handle per allocated path, in the
// allocation's order.
func checkBindings(t *testing.T, o *Orchestrator, step string) {
	t.Helper()
	o.lockAll()
	defer o.unlockAll()
	n := 0
	for _, m := range o.rosterAllLocked() {
		switch m.s.State() {
		case slice.StateRejected, slice.StateTerminated:
			continue
		}
		n++
		id, alloc := m.s.ID(), m.s.Allocation()
		cells := m.bind.Cells()
		if len(cells) != len(alloc.PRBs) {
			t.Errorf("%s: %s is bound to %d cells, holds PRBs on %d", step, id, len(cells), len(alloc.PRBs))
		}
		seen := map[string]bool{}
		for _, h := range cells {
			name := h.Cell().Name()
			prbs, live := h.PRBs()
			held, ok := h.Cell().Reservation(alloc.PLMN)
			if !live || seen[name] || prbs != alloc.PRBs[name] || !ok || held != prbs {
				t.Errorf("%s: %s's handle on %s: %d PRBs (live %v, seen %v), allocation %d, cell holds %d (%v)",
					step, id, name, prbs, live, seen[name], alloc.PRBs[name], held, ok)
			}
			seen[name] = true
		}
		paths := m.bind.Paths()
		if len(paths) != len(alloc.PathIDs) {
			t.Errorf("%s: %s is bound to %d paths, allocation has %d", step, id, len(paths), len(alloc.PathIDs))
			continue
		}
		for i, r := range paths {
			if r.ID != alloc.PathIDs[i] || !o.tb.Transport.Holds(r) {
				t.Errorf("%s: %s's path handle %d is %s (live %v), allocation names %s",
					step, id, i, r.ID, o.tb.Transport.Holds(r), alloc.PathIDs[i])
			}
		}
	}
	if n == 0 {
		t.Fatalf("%s: no live slice to check", step)
	}
}

// bindingsOf copies every registered slice's binding.
func bindingsOf(o *Orchestrator) map[slice.ID]ctrl.Binding {
	o.lockAll()
	defer o.unlockAll()
	out := map[slice.ID]ctrl.Binding{}
	for _, m := range o.rosterAllLocked() {
		out[m.s.ID()] = m.bind
	}
	return out
}

// TestBindingTracksSubstrate: through every producer of handles — install,
// the squeeze, a re-route, a degradation shrink, an install the engine rolls
// back, and both recovery paths — each live slice's binding names exactly its
// live reservations, and handles a release killed stay dead.
func TestBindingTracksSubstrate(t *testing.T) {
	cfg := Config{Overbook: true, Risk: 0.9, Audit: true, SnapshotEvery: 2}
	// installed submits three slices on the redundant-transport testbed and
	// lets their installation stages end.
	installed := func(t *testing.T, cfg Config) *Orchestrator {
		t.Helper()
		s, o := replayEnv(t, cfg)
		for _, mbps := range []float64{30, 20, 10} {
			sl, err := o.Submit(req("t", mbps, 50, 2*time.Hour, 100), traffic.NewConstant(mbps/3, 0, nil))
			if err != nil || sl.State() == slice.StateRejected {
				t.Fatalf("submit %v Mbps: %v %v", mbps, err, sl)
			}
		}
		if err := s.RunFor(15 * time.Second); err != nil {
			t.Fatal(err)
		}
		return o
	}
	audited := func(t *testing.T, o *Orchestrator) {
		t.Helper()
		o.AuditSweep()
		if v := o.Auditor().Violations(); len(v) != 0 {
			t.Fatalf("%d audit violations, first %+v", len(v), v[0])
		}
	}

	t.Run("install", func(t *testing.T) {
		o := installed(t, cfg)
		checkBindings(t, o, "install")
	})

	t.Run("squeeze", func(t *testing.T) {
		o := installed(t, cfg)
		before := o.Gain().Reconfigurations
		o.squeezeAll()
		if o.Gain().Reconfigurations == before {
			t.Fatal("the squeeze resized nothing")
		}
		checkBindings(t, o, "squeeze")
	})

	t.Run("re-route", func(t *testing.T) {
		o := installed(t, cfg)
		old := bindingsOf(o)
		rep, err := o.HandleLinkFailure(testbed.ENBName(0), testbed.Switch)
		if err != nil || len(rep.Restored) == 0 {
			t.Fatalf("link failure: %+v, %v", rep, err)
		}
		checkBindings(t, o, "re-route")
		for _, id := range rep.Restored {
			b := old[id]
			for _, r := range b.Paths() {
				if o.tb.Transport.Holds(r) {
					t.Errorf("%s's path handle %s from before the re-route is still live", id, r.ID)
				}
			}
			if changed, err := o.Resize(id, floorMbps); err != nil || !changed {
				t.Errorf("resize of re-routed %s: changed %v, %v", id, changed, err)
			}
		}
		checkBindings(t, o, "resize after re-route")
		audited(t, o)
	})

	t.Run("degradation shrink", func(t *testing.T) {
		o := installed(t, cfg)
		if _, err := o.HandleLinkFailure(testbed.ENBName(0), testbed.Switch); err != nil {
			t.Fatal(err)
		}
		rep, err := o.HandleLinkDegradation(testbed.ENBName(0), testbed.BackupSwitch, 8)
		if err != nil || len(rep.Restored) == 0 {
			t.Fatalf("degradation: %+v, %v", rep, err)
		}
		checkBindings(t, o, "degradation shrink")
		audited(t, o)
	})

	// A fade between two resizes to the same target. Once the slice sits at
	// the target, a second resize there is no resize — one PRB on each cell
	// is more than the 10 Mbps slice's hysteresis band, so a shrink that
	// clears the band rounds back to the PRBs it holds, and the radio says
	// so — and after cell 0 fades, the same resize sizes the throughput onto
	// its extra PRBs. After each step the allocation's PRB map names what
	// the cells hold.
	t.Run("fade", func(t *testing.T) {
		o := installed(t, cfg)
		sl, ok := o.Get("s-3")
		if !ok || sl.SLA().ThroughputMbps != 10 {
			t.Fatalf("s-3 is %v, want the 10 Mbps slice", sl)
		}
		const target = 3.5 // 0.62 Mbps under its 4-PRB grant, band 0.5
		resize := func(step string) map[string]int {
			t.Helper()
			if changed, err := o.Resize(sl.ID(), target); err != nil || !changed {
				t.Fatalf("%s: changed %v, %v", step, changed, err)
			}
			checkBindings(t, o, step)
			return sl.Allocation().PRBs
		}
		held := resize("resize to the target")
		if changed, err := o.Resize(sl.ID(), target); err != nil || changed {
			t.Fatalf("resize before the fade: changed %v, %v; the radio quantum should swallow it", changed, err)
		}
		checkBindings(t, o, "resize before the fade")
		if got := sl.Allocation().PRBs; !reflect.DeepEqual(got, held) {
			t.Fatalf("the resize before the fade moved %v to %v", held, got)
		}
		o.tb.RAN.All()[0].SetMeanCQI(4)
		if got := resize("resize in the fade"); reflect.DeepEqual(got, held) {
			t.Fatalf("the resize in the fade left %v; the step proves nothing", got)
		}
	})

	t.Run("install abort", func(t *testing.T) {
		o := installed(t, cfg)
		fi, _ := ctrl.Injector(o.tb.Ctrl.Transport)
		fi.InjectFault(ctrl.Fault{Stage: ctrl.FaultCommit, Remaining: 1})
		sl, err := o.Submit(req("t", 10, 50, time.Hour, 100), nil)
		if err != nil || sl.State() != slice.StateRejected {
			t.Fatalf("faulted submit: %v %v", err, sl)
		}
		checkBindings(t, o, "install abort")
		if b := bindingsOf(o)[sl.ID()]; len(b.Cells()) != 0 || len(b.Paths()) != 0 {
			t.Fatalf("the rejected slice is bound to %d cells and %d paths", len(b.Cells()), len(b.Paths()))
		}
		audited(t, o)
	})

	sink := &memSink{}
	run := cfg
	run.Persist = sink
	o := installed(t, run)
	for i := 0; i < 5; i++ {
		o.RunEpoch()
	}
	if _, err := o.HandleLinkFailure(testbed.ENBName(0), testbed.Switch); err != nil {
		t.Fatal(err)
	}
	o.Shutdown()
	if sink.snap == nil {
		t.Fatal("the run took no checkpoint")
	}
	all := uint64(len(sink.records))
	for name, img := range map[string]*wal.Recovered{
		"whole-log recovery":         {Records: sink.records, LastSeq: all},
		"checkpoint + tail recovery": {SnapshotSeq: sink.snapSeq, Snapshot: sink.snap, Records: sink.records[sink.snapSeq:], LastSeq: all},
	} {
		t.Run(name, func(t *testing.T) {
			_, fresh := replayEnv(t, Config{})
			rec, _, err := RecoverFromWAL(cfg, fresh.tb, fresh.clock, nil, img)
			if err != nil {
				t.Fatal(err)
			}
			reconfigureAndRelease(t, rec) // checks the bindings first
		})
	}
}

package core

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/forecast"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

// image renders every copy-returning view of the slice as canonical JSON —
// the "bits" a holder of an earlier copy must keep seeing.
func image(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestInPlaceAllocationAliasing pins the ownership discipline of the
// in-place allocation (DESIGN.md §7.5): the epoch resizes a slice by
// mutating its live allocation under the slice lock, so everything handed
// out before — Snapshot, Allocation, Persist, a delivered EventResized —
// must be unaffected, and nothing a caller does to a returned PRB map or
// path-ID slice may show through to the live slice or the auditor's sweep.
func TestInPlaceAllocationAliasing(t *testing.T) {
	o, _, s := auditEnv(t, Config{Overbook: true, Risk: 0.9, Epoch: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := o.Watch(ctx, WatchOptions{Types: []EventType{EventResized}})

	sl, err := o.Submit(req("alias", 40, 50, 6*time.Hour, 100), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if sl.State() != slice.StateActive {
		t.Fatalf("slice is %s, want active", sl.State())
	}

	// First resize: demand far below the contract shrinks the allocation.
	if err := o.RecordDemand(sl.ID(), 5); err != nil {
		t.Fatal(err)
	}
	o.RunEpoch()
	var first Event
	select {
	case first = <-events:
	case <-time.After(5 * time.Second):
		t.Fatal("no EventResized after the first epoch")
	}
	firstImage := image(t, first)

	snap, alloc, pers := sl.Snapshot(), sl.Allocation(), sl.Persist()
	before := [3]string{image(t, snap), image(t, alloc), image(t, pers)}
	if len(alloc.PRBs) == 0 || len(alloc.PathIDs) == 0 {
		t.Fatalf("allocation holds no containers to alias: %+v", alloc)
	}

	// Second resize: demand back at the contract grows it again, in place.
	if err := o.RecordDemand(sl.ID(), 40); err != nil {
		t.Fatal(err)
	}
	reconfigs := o.Gain().Reconfigurations
	for i := 0; i < 4; i++ {
		o.RunEpoch()
	}
	if got := o.Gain().Reconfigurations; got == reconfigs {
		t.Fatal("the second phase never resized; the test would prove nothing")
	}
	if sl.AllocatedMbps() == alloc.AllocatedMbps {
		t.Fatalf("allocation still %.2f Mbps after the resize", alloc.AllocatedMbps)
	}
	after := [3]string{image(t, snap), image(t, alloc), image(t, pers)}
	if before != after {
		t.Fatalf("copies taken before the resize changed:\nbefore %v\nafter  %v", before, after)
	}
	if got := image(t, first); got != firstImage {
		t.Fatalf("delivered EventResized changed: %s -> %s", firstImage, got)
	}

	// Scribbling over returned containers reaches neither the live slice
	// nor what the auditor reads.
	live := image(t, sl.Allocation())
	for _, a := range []slice.Allocation{sl.Allocation(), sl.Snapshot().Allocation, sl.Persist().Allocation} {
		for k := range a.PRBs {
			a.PRBs[k] = -7
		}
		a.PRBs["ghost-enb"] = 1
		for i := range a.PathIDs {
			a.PathIDs[i] = "ghost-path"
		}
	}
	if got := image(t, sl.Allocation()); got != live {
		t.Fatalf("mutating returned copies changed the live allocation:\n%s\n%s", live, got)
	}
	o.AuditSweep()
	o.RunEpoch() // one more resize opportunity plus the barrier sweep
	if err := o.Auditor().Err(); err != nil {
		t.Fatalf("auditor saw the scribbles: %v", err)
	}
}

// sliceSeriesNames lists the store's per-slice series of one slice.
func sliceSeriesNames(o *Orchestrator, id slice.ID) []string {
	var out []string
	for _, name := range o.store.Names() {
		if strings.HasPrefix(name, "slice/"+string(id)+"/") {
			out = append(out, name)
		}
	}
	return out
}

// TestEpochTelemetryReadsBack: on a fixed-seed loaded system, after k
// epochs every slice active throughout holds k rows in each of its three
// series, stamped with the k epoch instants, and its allocated column is the
// AllocatedMbps() read after each epoch — whatever batch the rows were
// written in, each lands in its own slice's ring.
func TestEpochTelemetryReadsBack(t *testing.T) {
	const k = 12
	s := sim.NewSimulator(7)
	tbCfg := testbed.Default()
	tbCfg.MaxPLMNs, tbCfg.ENBCarriers = 32, 2
	tb, err := testbed.New(tbCfg, s.Rand())
	if err != nil {
		t.Fatal(err)
	}
	o := New(Config{Overbook: true, Risk: 0.9, Shards: 4, PLMNLimit: 32}, tb, s, monitor.NewStore(512))
	var sls []*slice.Slice
	for i := 0; i < 24; i++ {
		sl, err := o.Submit(req(fmt.Sprintf("rb-%d", i), 2+float64(i%4), 50, 6*time.Hour, 10),
			traffic.NewBursty(1, 4, 0.2, 0.5, 0.3, s.Rand()))
		if err != nil {
			t.Fatal(err)
		}
		if sl.State() != slice.StateRejected {
			sls = append(sls, sl)
		}
	}
	o.Start()
	if err := s.RunFor(30 * time.Second); err != nil { // install + vEPC boot, before the first epoch
		t.Fatal(err)
	}
	if _, ok := o.LastEpoch(); ok {
		t.Fatal("an epoch ran before the slices were active")
	}
	var at []time.Time
	alloc := map[slice.ID][]float64{}
	for e := 1; e <= k; e++ {
		if err := s.RunFor(time.Minute); err != nil {
			t.Fatal(err)
		}
		snap, ok := o.LastEpoch()
		if !ok || snap.Epoch != e {
			t.Fatalf("after %d minutes the last epoch is %d", e, snap.Epoch)
		}
		at = append(at, snap.At)
		for _, sl := range sls {
			alloc[sl.ID()] = append(alloc[sl.ID()], sl.AllocatedMbps())
		}
	}
	active := 0
	for _, sl := range sls {
		if sl.State() != slice.StateActive {
			continue
		}
		active++
		for _, metric := range []string{"demand_mbps", "served_mbps", "allocated_mbps"} {
			w := o.Store().Series(monitor.SliceMetric(string(sl.ID()), metric)).Window(0)
			if len(w) != k {
				t.Fatalf("%s %s holds %d rows after %d epochs", sl.ID(), metric, len(w), k)
			}
			for e, smp := range w {
				if !smp.At.Equal(at[e]) {
					t.Fatalf("%s %s row %d stamped %v, epoch ran at %v", sl.ID(), metric, e, smp.At, at[e])
				}
				if metric == "allocated_mbps" && smp.Value != alloc[sl.ID()][e] {
					t.Fatalf("%s allocated row %d = %v, AllocatedMbps() read %v after that epoch", sl.ID(), e, smp.Value, alloc[sl.ID()][e])
				}
			}
		}
	}
	if active < 8 {
		t.Fatalf("only %d slices active throughout; the test needs a loaded system", active)
	}
	if o.Gain().Reconfigurations == 0 {
		t.Fatal("no slice was resized; allocated never moved")
	}
	t.Logf("%d slices read back over %d epochs, %d reconfigurations", active, k, o.Gain().Reconfigurations)
}

// TestEvictedSliceTelemetryDropped is the regression test for the per-slice
// telemetry leak: the three series a slice gets on its first epoch used to
// stay in the store forever. They must survive while the finished slice is
// still in the retained history (the dashboard charts what it can list) and
// leave with it — through both eviction paths.
func TestEvictedSliceTelemetryDropped(t *testing.T) {
	const history = 3
	// churn finishes n more slices, each pushing one onto the history.
	churn := func(t *testing.T, o *Orchestrator, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			sl, err := o.Submit(req("filler", 1, 50, time.Hour, 1), nil)
			if err != nil {
				t.Fatal(err)
			}
			if sl.State() != slice.StateRejected {
				if err := o.Delete(sl.ID()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	measured := func(t *testing.T) (*Orchestrator, *slice.Slice) {
		t.Helper()
		s, o := env(t, Config{Overbook: true, Risk: 0.9, HistoryLimit: history})
		sl, err := o.Submit(req("leak", 20, 50, time.Hour, 10), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunFor(time.Minute); err != nil {
			t.Fatal(err)
		}
		if err := o.RecordDemand(sl.ID(), 8); err != nil {
			t.Fatal(err)
		}
		o.RunEpoch()
		if got := sliceSeriesNames(o, sl.ID()); len(got) != 3 {
			t.Fatalf("measured slice has series %v, want 3", got)
		}
		return o, sl
	}

	t.Run("delete", func(t *testing.T) {
		o, sl := measured(t)
		if err := o.Delete(sl.ID()); err != nil {
			t.Fatal(err)
		}
		churn(t, o, history-1)
		if _, ok := o.Get(sl.ID()); !ok {
			t.Fatal("slice left the history early")
		}
		if got := sliceSeriesNames(o, sl.ID()); len(got) != 3 {
			t.Fatalf("in-history slice lost series: %v", got)
		}
		churn(t, o, 1) // dropFinished evicts it
		if _, ok := o.Get(sl.ID()); ok {
			t.Fatal("slice still registered past HistoryLimit")
		}
		if got := sliceSeriesNames(o, sl.ID()); len(got) != 0 {
			t.Fatalf("evicted slice left series behind: %v", got)
		}
	})

	t.Run("restoration", func(t *testing.T) {
		// No backup switch: failing the access link drops every slice on
		// it, and the pass evicts through dropFinishedAllLocked.
		o, sl := measured(t)
		if err := o.Delete(sl.ID()); err != nil {
			t.Fatal(err)
		}
		churn(t, o, history-1)
		victim, err := o.Submit(req("victim", 1, 50, time.Hour, 1), nil)
		if err != nil || victim.State() == slice.StateRejected {
			t.Fatalf("victim not admitted: %v", err)
		}
		rep, err := o.HandleLinkFailure(testbed.ENBName(0), testbed.Switch)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Dropped) != 1 {
			t.Fatalf("restoration dropped %v, want the victim", rep.Dropped)
		}
		if _, ok := o.Get(sl.ID()); ok {
			t.Fatal("slice still registered past HistoryLimit")
		}
		if got := sliceSeriesNames(o, sl.ID()); len(got) != 0 {
			t.Fatalf("restoration eviction left series behind: %v", got)
		}
	})
}

// observeHook is a forecaster that runs a callback, once, inside Observe —
// that is, inside the epoch's analysis pass P3, under its slice's shard lock.
type observeHook struct {
	forecast.Forecaster
	onObserve func()
}

func (f *observeHook) Observe(v float64) {
	if fn := f.onObserve; fn != nil {
		f.onObserve = nil
		fn()
	}
	f.Forecaster.Observe(v)
}

// TestSliceGoneBeforeCommitGetsNoTelemetryRow states the one behavioural edge
// of writing a slice's telemetry as one row in the commit phase P3c. A slice
// measured in P1 and analysed in P3 — its demand and served samples counted,
// its forecaster fed, its violation charged — but torn down before P3c
// reaches it gets no row for that epoch. (When the three metrics were three
// rings, demand and served were appended in P3 and such a slice kept a last
// pair of samples its allocated series never matched.) Its ring leaves the
// store with it either way; a slice that stays gets its row. The violation it
// counted in that last epoch is in the books: the charge happens in the same
// critical section as the count, so no teardown can fall between them.
func TestSliceGoneBeforeCommitGetsNoTelemetryRow(t *testing.T) {
	var hooks []*observeHook
	s, o := env(t, Config{Overbook: true, Risk: 0.9, Shards: 16, NewForecaster: func() forecast.Forecaster {
		h := &observeHook{Forecaster: forecast.NewEWMA(0.3)}
		hooks = append(hooks, h)
		return h
	}})
	// Two slices on different shards, so a Delete of one can run from inside
	// the other's analysis, which holds only the other's shard lock.
	var sls []*slice.Slice
	for len(sls) < 2 || o.shardFor(sls[0].ID()) == o.shardFor(sls[len(sls)-1].ID()) {
		sl, err := o.Submit(req("edge", 2, 50, time.Hour, 10), nil)
		if err != nil || sl.State() == slice.StateRejected {
			t.Fatalf("slice %d not admitted: %v", len(sls), err)
		}
		sls = append(sls, sl)
	}
	if err := s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	for _, sl := range sls {
		if err := o.RecordDemand(sl.ID(), 1); err != nil {
			t.Fatal(err)
		}
	}
	victim, stayer := sls[0], sls[len(sls)-1]
	rows := func(sl *slice.Slice, metric string) int {
		return o.Store().Series(monitor.SliceMetric(string(sl.ID()), metric)).Len()
	}
	o.RunEpoch()
	if rows(victim, "demand_mbps") != 1 || rows(stayer, "demand_mbps") != 1 {
		t.Fatalf("first epoch wrote %d and %d rows, want 1 and 1", rows(victim, "demand_mbps"), rows(stayer, "demand_mbps"))
	}

	// Second epoch: the victim asks for its whole contract, more than the
	// first epoch shrank it to, so it violates. P3 walks the slices in
	// submission order and the victim was submitted first, so the stayer's
	// analysis runs after the victim's and deletes it there — the teardown
	// lands after P3 analysed the victim and before P3c reaches it.
	if got := victim.AllocatedMbps(); got >= victim.SLA().ThroughputMbps {
		t.Fatalf("victim holds %.2f Mbps after the first epoch, want less than its contract", got)
	}
	if err := o.RecordDemand(victim.ID(), victim.SLA().ThroughputMbps); err != nil {
		t.Fatal(err)
	}
	hooks[len(hooks)-1].onObserve = func() {
		if err := o.Delete(victim.ID()); err != nil {
			t.Error(err)
		}
	}
	o.RunEpoch()
	if got := victim.Accounting().ServedEpochs; got != 2 {
		t.Fatalf("victim was analysed in %d epochs, want 2 (the second ran before its teardown)", got)
	}
	if got := victim.Accounting().ViolationEpochs; got != 1 {
		t.Fatalf("victim counted %d violation epochs, want 1 (its last)", got)
	}
	if victim.State() != slice.StateTerminated {
		t.Fatalf("victim is %s, want terminated", victim.State())
	}
	var penalty float64
	var violations int
	for _, sl := range sls {
		a := sl.Accounting()
		penalty += a.PenaltyEUR
		violations += a.ViolationEpochs
	}
	if g := o.Gain(); g.PenaltyTotalEUR != penalty || g.ViolationEpochs != violations {
		t.Fatalf("books charged %.2f EUR over %d violation epochs, the slices counted %.2f EUR over %d",
			g.PenaltyTotalEUR, g.ViolationEpochs, penalty, violations)
	}
	for _, metric := range []string{"demand_mbps", "served_mbps", "allocated_mbps"} {
		if got := rows(victim, metric); got != 1 {
			t.Fatalf("victim's %s holds %d samples, want 1: no row for the epoch it did not live through", metric, got)
		}
		if got := rows(stayer, metric); got != 2 {
			t.Fatalf("stayer's %s holds %d samples, want 2", metric, got)
		}
	}
}

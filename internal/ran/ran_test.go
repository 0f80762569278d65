package ran

import (
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/slice"
)

func plmn(mnc string) slice.PLMN { return slice.PLMN{MCC: "001", MNC: mnc} }

func newTestENB(t *testing.T) *ENB {
	t.Helper()
	e, err := NewENB(Config{Name: "enb-1"})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestBandwidthPRBTable: every carrier is the 100-PRB grid of a 20 MHz
// channel, aggregated carriers add whole grids, and the snapshot names the
// channel "20MHz".
func TestBandwidthPRBTable(t *testing.T) {
	for carriers, want := range map[int]int{0: 100, 1: 100, 2: 200, 3: 300} {
		e, err := NewENB(Config{Name: "e", Carriers: carriers})
		if err != nil {
			t.Fatal(err)
		}
		if got := e.TotalPRBs(); got != want {
			t.Fatalf("%d carriers: %d PRBs, want %d", carriers, got, want)
		}
		if s := e.Snapshot(); s.Bandwidth != "20MHz" || s.TotalPRBs != want {
			t.Fatalf("%d carriers: snapshot %q with %d PRBs", carriers, s.Bandwidth, s.TotalPRBs)
		}
	}
}

func TestEfficiencyMonotone(t *testing.T) {
	prev := -1.0
	for cqi := 0; cqi <= 15; cqi++ {
		e := Efficiency(cqi)
		if e < prev {
			t.Fatalf("efficiency not monotone at CQI %d", cqi)
		}
		prev = e
	}
	if Efficiency(-5) != 0 || Efficiency(40) != Efficiency(15) {
		t.Fatal("CQI clamping broken")
	}
}

func TestPRBThroughputScale(t *testing.T) {
	// CQI 15: 5.5547 bits/sym * 12 * 11 / 1000 ≈ 0.733 Mbps per PRB;
	// a 20 MHz cell at top CQI is then ~73 Mbps per carrier, the right
	// order for a single-stream LTE small cell.
	got := PRBThroughputMbps(15)
	if math.Abs(got-0.7332) > 0.01 {
		t.Fatalf("PRB throughput at CQI15 = %v", got)
	}
	if PRBThroughputMbps(0) != 0 {
		t.Fatal("CQI0 should carry nothing")
	}
}

func TestNewENBValidation(t *testing.T) {
	if _, err := NewENB(Config{}); err == nil {
		t.Fatal("nameless eNB accepted")
	}
	e, err := NewENB(Config{Name: "x", Carriers: 3})
	if err != nil || e.TotalPRBs() != 300 {
		t.Fatalf("three-carrier cell: %v PRBs, %v", e.TotalPRBs(), err)
	}
}

func TestReserveResizeRelease(t *testing.T) {
	e := newTestENB(t)
	p := plmn("01")
	h, err := e.Reserve(p, 40)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := e.Reservation(p); got != 40 {
		t.Fatalf("reservation %d", got)
	}
	if e.FreePRBs() != 60 {
		t.Fatalf("free %d", e.FreePRBs())
	}
	if err := h.Resize(70); err != nil {
		t.Fatal(err)
	}
	if e.FreePRBs() != 30 {
		t.Fatalf("free after grow %d", e.FreePRBs())
	}
	if err := h.Resize(10); err != nil {
		t.Fatal(err)
	}
	if e.FreePRBs() != 90 {
		t.Fatalf("free after shrink %d", e.FreePRBs())
	}
	if h.Cell() != e {
		t.Fatalf("handle of a reserved PLMN: cell=%v", h.Cell())
	}
	if err := h.Resize(25); err != nil || e.FreePRBs() != 75 {
		t.Fatalf("resize through the handle: %v, free %d", err, e.FreePRBs())
	}
	e.Release(p)
	if e.FreePRBs() != 100 {
		t.Fatalf("free after release %d", e.FreePRBs())
	}
	if _, ok := e.Reservation(p); ok {
		t.Fatal("released PLMN still reserved")
	}

	// The PLMN is reserved again: the handle of the released reservation must
	// not reach the new one. Stale handle ⇒ ErrUnknownPLMN, nothing mutated.
	fresh, prbs, granted, err := e.ReserveThroughput(p, 10)
	if err != nil || prbs != e.PRBsForThroughput(10) || granted != e.ThroughputForPRBs(prbs) {
		t.Fatalf("reserve by throughput: %d PRBs, %.3f Mbps, %v", prbs, granted, err)
	}
	if err := h.Resize(60); !errors.Is(err, ErrUnknownPLMN) {
		t.Fatalf("stale handle resize: %v", err)
	}
	if _, _, _, err := h.ResizeThroughput(30); !errors.Is(err, ErrUnknownPLMN) {
		t.Fatalf("stale handle resize by throughput: %v", err)
	}
	if _, _, _, err := (Handle{}).ResizeThroughput(30); !errors.Is(err, ErrUnknownPLMN) {
		t.Fatalf("zero handle: %v", err)
	}
	if got, _ := e.Reservation(p); got != prbs || e.FreePRBs() != 100-prbs {
		t.Fatalf("stale handle mutated the cell: reservation %d (want %d), free %d", got, prbs, e.FreePRBs())
	}
	// The live handle sizes, checks and writes in one step and reports what
	// it replaced.
	was, now, granted, err := fresh.ResizeThroughput(20)
	if err != nil || was != prbs || now != e.PRBsForThroughput(20) || granted != e.ThroughputForPRBs(now) {
		t.Fatalf("resize by throughput: %d -> %d PRBs, %.3f Mbps, %v", was, now, granted, err)
	}
	if _, _, _, err := fresh.ResizeThroughput(1e6); !errors.Is(err, ErrInsufficientPRBs) {
		t.Fatalf("oversize resize by throughput: %v", err)
	}
	if got, _ := e.Reservation(p); got != now {
		t.Fatalf("failed resize moved the reservation to %d", got)
	}
	if msgs := e.AuditConservation(); len(msgs) != 0 {
		t.Fatal(msgs)
	}
}

// TestReleaseKeepsReservationOrder: the broadcast list is the order the
// scheduler sums in, so a release must take out exactly its own entry —
// first, middle or last — and a PLMN reserved again goes to the back.
func TestReleaseKeepsReservationOrder(t *testing.T) {
	e := newTestENB(t)
	list := func() string {
		s := ""
		for _, p := range e.BroadcastList() {
			s += p.MNC + " "
		}
		return s
	}
	for _, mnc := range []string{"01", "02", "03", "04", "05"} {
		if _, err := e.Reserve(plmn(mnc), 5); err != nil {
			t.Fatal(err)
		}
	}
	for _, step := range []struct{ release, want string }{
		{"03", "01 02 04 05 "}, {"01", "02 04 05 "}, {"05", "02 04 "},
	} {
		e.Release(plmn(step.release))
		if got := list(); got != step.want {
			t.Fatalf("after releasing %s: list %q, want %q", step.release, got, step.want)
		}
		if msgs := e.AuditConservation(); len(msgs) != 0 {
			t.Fatal(msgs)
		}
	}
	e.Reserve(plmn("03"), 5)
	e.Release(plmn("02"))
	e.Release(plmn("02")) // idempotent
	if got := list(); got != "04 03 " {
		t.Fatalf("list %q, want \"04 03 \"", got)
	}
	e.Release(plmn("04"))
	e.Release(plmn("03"))
	if got := list(); got != "" || e.FreePRBs() != e.TotalPRBs() {
		t.Fatalf("emptied cell lists %q, %d PRBs free", got, e.FreePRBs())
	}
	if msgs := e.AuditConservation(); len(msgs) != 0 {
		t.Fatal(msgs)
	}
}

// TestSetMeanCQIInvalidatesSizing: the cached per-PRB throughput follows the
// mean CQI, so sizing and scheduling after a fade run at the faded rate.
func TestSetMeanCQIInvalidatesSizing(t *testing.T) {
	e := newTestENB(t)
	h, _, _, err := e.ReserveThroughput(plmn("01"), 10)
	if err != nil {
		t.Fatal(err)
	}
	e.SetMeanCQI(5)
	per := PRBThroughputMbps(5)
	want := int(math.Ceil(10 / per))
	if e.CapacityMbps() != 100*per || e.PRBsForThroughput(10) != want {
		t.Fatalf("after the fade: capacity %.3f vs %.3f, sizing %d vs %d",
			e.CapacityMbps(), 100*per, e.PRBsForThroughput(10), want)
	}
	if _, prbs, granted, err := h.ResizeThroughput(10); err != nil || prbs != want || granted != float64(want)*per {
		t.Fatalf("resize after the fade: %d PRBs, %.3f Mbps, %v", prbs, granted, err)
	}
	if served, _ := e.ScheduleEpoch(DemandMbps{plmn("01"): 1e6}, false); served[plmn("01")] != float64(want)*per {
		t.Fatalf("scheduled after the fade: %.3f Mbps, want %.3f", served[plmn("01")], float64(want)*per)
	}
}

func TestReserveErrors(t *testing.T) {
	e := newTestENB(t)
	p := plmn("01")
	if _, err := e.Reserve(p, 0); err == nil {
		t.Fatal("zero reservation accepted")
	}
	if _, err := e.Reserve(p, 101); !errors.Is(err, ErrInsufficientPRBs) {
		t.Fatalf("oversize reserve: %v", err)
	}
	h, err := e.Reserve(p, 50)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Reserve(p, 10); !errors.Is(err, ErrAlreadyReserved) {
		t.Fatalf("duplicate reserve: %v", err)
	}
	if err := (Handle{}).Resize(10); !errors.Is(err, ErrUnknownPLMN) {
		t.Fatalf("resize unknown: %v", err)
	}
	if err := h.Resize(200); !errors.Is(err, ErrInsufficientPRBs) {
		t.Fatalf("oversize resize: %v", err)
	}
	if got, _ := e.Reservation(p); got != 50 {
		t.Fatalf("failed resize mutated reservation to %d", got)
	}
}

func TestMOCNListLimit(t *testing.T) {
	e, _ := NewENB(Config{Name: "e", MaxPLMNs: 2})
	e.Reserve(plmn("01"), 10)
	e.Reserve(plmn("02"), 10)
	if _, err := e.Reserve(plmn("03"), 10); !errors.Is(err, ErrPLMNListFull) {
		t.Fatalf("3rd PLMN on limit-2 list: %v", err)
	}
	bl := e.BroadcastList()
	if len(bl) != 2 || bl[0] != plmn("01") || bl[1] != plmn("02") {
		t.Fatalf("broadcast list %v", bl)
	}
}

func TestSizingRoundTrip(t *testing.T) {
	e := newTestENB(t) // CQI 12 → 3.9023*12*11/1000 = 0.515 Mbps/PRB
	prbs := e.PRBsForThroughput(30)
	if got := e.ThroughputForPRBs(prbs); got < 30 {
		t.Fatalf("PRB sizing under-provisions: %d PRBs -> %.2f Mbps", prbs, got)
	}
	if got := e.ThroughputForPRBs(prbs - 1); got >= 30 {
		t.Fatalf("PRB sizing wastes a block: %d PRBs already give %.2f", prbs-1, got)
	}
	if e.PRBsForThroughput(0) != 0 || e.PRBsForThroughput(-5) != 0 {
		t.Fatal("non-positive demand sized to PRBs")
	}
}

func TestScheduleEpochDedicated(t *testing.T) {
	e := newTestENB(t)
	p1, p2 := plmn("01"), plmn("02")
	e.Reserve(p1, 50)
	e.Reserve(p2, 50)
	per := PRBThroughputMbps(12)

	served, util := e.ScheduleEpoch(DemandMbps{p1: 10 * per, p2: 100 * per}, false)
	if math.Abs(served[p1]-10*per) > 1e-9 {
		t.Fatalf("p1 served %.3f, want %.3f", served[p1], 10*per)
	}
	// p2 demands 100 PRBs worth but owns only 50: capped without sharing.
	if math.Abs(served[p2]-50*per) > 1e-9 {
		t.Fatalf("p2 served %.3f, want %.3f", served[p2], 50*per)
	}
	if math.Abs(util-0.60) > 1e-9 {
		t.Fatalf("util %.3f, want 0.60", util)
	}
}

func TestScheduleEpochSharedUnused(t *testing.T) {
	e := newTestENB(t)
	p1, p2 := plmn("01"), plmn("02")
	e.Reserve(p1, 50)
	e.Reserve(p2, 50)
	per := PRBThroughputMbps(12)

	served, util := e.ScheduleEpoch(DemandMbps{p1: 10 * per, p2: 100 * per}, true)
	// p2 can now borrow p1's 40 idle PRBs: 50 own + 40 borrowed = 90.
	if math.Abs(served[p2]-90*per) > 1e-6 {
		t.Fatalf("p2 served %.3f, want %.3f", served[p2], 90*per)
	}
	if math.Abs(served[p1]-10*per) > 1e-9 {
		t.Fatalf("p1 served %.3f", served[p1])
	}
	if math.Abs(util-1.0) > 1e-6 {
		t.Fatalf("util %.3f, want 1.0", util)
	}
}

// TestScheduleDenseAlignsWithInput: the dense passes, addressed by handle
// (ScheduleBound) or by name (ScheduleIndexed), are the same scheduler as the
// map-typed one, on index-aligned arrays — handles on another cell, released
// handles and unreserved PLMNs are skipped, reservations the input does not
// name offer nothing, and served accumulates across calls (the controller
// sums cells into one array).
func TestScheduleDenseAlignsWithInput(t *testing.T) {
	e, other := newTestENB(t), newTestENB(t)
	p1, p2, idle, ghost := plmn("01"), plmn("02"), plmn("03"), plmn("09")
	h1, _ := e.Reserve(p1, 50)
	e.Reserve(idle, 10) // reserved, offers no load
	h2, _ := e.Reserve(p2, 40)
	hg, _ := other.Reserve(ghost, 5)
	per := PRBThroughputMbps(12)

	want, wantUtil := e.ScheduleEpoch(DemandMbps{p1: 10 * per, p2: 100 * per}, true)
	bound := [][]Handle{{h2}, {hg}, {hg, h1}} // input order is not reservation order, nor a slice's handle order
	demand := []float64{100 * per, 5, 10 * per}
	served := make([]float64, 3)
	util := e.ScheduleBound(bound, demand, served, true)
	if util != wantUtil || served[0] != want[p2] || served[2] != want[p1] || served[1] != 0 {
		t.Fatalf("dense served %v util %v, map pass %v util %v", served, util, want, wantUtil)
	}
	byName := make([]float64, 3)
	util = e.ScheduleIndexed(map[slice.PLMN]int{p2: 0, ghost: 1, p1: 2}, demand, byName, true)
	if util != wantUtil || byName[0] != want[p2] || byName[2] != want[p1] || byName[1] != 0 {
		t.Fatalf("name-addressed served %v util %v, map pass %v util %v", byName, util, want, wantUtil)
	}
	if v, ok := want[idle]; !ok || v != 0 {
		t.Fatalf("map adapter dropped the idle PLMN: %v", want)
	}
	e.ScheduleBound(bound, demand, served, true)
	if served[0] != 2*want[p2] || served[2] != 2*want[p1] {
		t.Fatalf("second pass did not accumulate: %v", served)
	}

	// p1 is released and reserved again: the handle held from before the
	// release no longer marks anything, so the new record offers no load.
	e.Release(p1)
	if _, err := e.Reserve(p1, 50); err != nil {
		t.Fatal(err)
	}
	clear(served)
	e.ScheduleBound(bound, demand, served, true)
	if want, _ := e.ScheduleEpoch(DemandMbps{p2: 100 * per}, true); served[0] != want[p2] || served[2] != 0 {
		t.Fatalf("released handle scheduled: served %v, want %v for p2 and 0 for the released one", served, want[p2])
	}
}

func TestScheduleEpochZeroDemand(t *testing.T) {
	e := newTestENB(t)
	e.Reserve(plmn("01"), 30)
	served, util := e.ScheduleEpoch(DemandMbps{}, true)
	if served[plmn("01")] != 0 || util != 0 {
		t.Fatalf("served %v util %v with no demand", served, util)
	}
}

func TestUtilizationTracksReservations(t *testing.T) {
	e := newTestENB(t)
	if e.Utilization() != 0 {
		t.Fatal("fresh eNB utilised")
	}
	e.Reserve(plmn("01"), 25)
	if got := e.Utilization(); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("utilization %v", got)
	}
}

func TestSnapshot(t *testing.T) {
	e := newTestENB(t)
	e.Reserve(plmn("01"), 20)
	s := e.Snapshot()
	if s.Name != "enb-1" || s.TotalPRBs != 100 || s.FreePRBs != 80 {
		t.Fatalf("snapshot %+v", s)
	}
	if len(s.PLMNs) != 1 || s.PLMNs[0].PRBs != 20 {
		t.Fatalf("snapshot plmns %+v", s.PLMNs)
	}
}

func TestNetworkRegistry(t *testing.T) {
	n := NewNetwork()
	e1, _ := NewENB(Config{Name: "enb-1"})
	e2, _ := NewENB(Config{Name: "enb-2"})
	if err := n.Add(e1); err != nil {
		t.Fatal(err)
	}
	if err := n.Add(e2); err != nil {
		t.Fatal(err)
	}
	if err := n.Add(e1); err == nil {
		t.Fatal("duplicate eNB accepted")
	}
	if got := n.Names(); len(got) != 2 || got[0] != "enb-1" {
		t.Fatalf("names %v", got)
	}
	if _, ok := n.Get("enb-2"); !ok {
		t.Fatal("Get missed enb-2")
	}
	if all := n.All(); len(all) != 2 || all[0] != e1 || all[1] != e2 {
		t.Fatalf("All() %v, want [enb-1 enb-2]", all)
	}
}

// TestCQIDrawBounded: the channel quality the scheduler runs at stays in
// 1..15 whatever a fade asks for, so a PRB never sustains zero throughput.
func TestCQIDrawBounded(t *testing.T) {
	e := newTestENB(t)
	for _, tc := range []struct{ ask, want float64 }{{-3, 1}, {0, 1}, {40, 15}, {7.4, 7}} {
		e.SetMeanCQI(tc.ask)
		per := PRBThroughputMbps(int(tc.want))
		if per <= 0 || e.ThroughputForPRBs(1) != per {
			t.Fatalf("CQI %v: %.4f Mbps per PRB, want %.4f (CQI %v)", tc.ask, e.ThroughputForPRBs(1), per, tc.want)
		}
	}
}

// Property: scheduling never serves a PLMN more than its demand, never
// serves more PRBs than the grid holds, and without sharing never exceeds
// each PLMN's own reservation.
func TestPropertySchedulerConservation(t *testing.T) {
	per := PRBThroughputMbps(12)
	f := func(resRaw [3]uint8, demRaw [3]uint16, share bool) bool {
		e, _ := NewENB(Config{Name: "p"})
		plmns := []slice.PLMN{plmn("01"), plmn("02"), plmn("03")}
		res := map[slice.PLMN]int{}
		free := 100
		for i, p := range plmns {
			r := int(resRaw[i])%50 + 1
			if r > free {
				r = free
			}
			if r == 0 {
				continue
			}
			if _, err := e.Reserve(p, r); err != nil {
				return false
			}
			res[p] = r
			free -= r
		}
		demand := DemandMbps{}
		for i, p := range plmns {
			demand[p] = float64(demRaw[i]%200) * per / 4
		}
		served, util := e.ScheduleEpoch(demand, share)
		totalPRBs := 0.0
		for p, s := range served {
			if s > demand[p]+1e-6 {
				return false // served more than asked
			}
			if !share && s > float64(res[p])*per+1e-6 {
				return false // exceeded dedicated budget
			}
			totalPRBs += s / per
		}
		return totalPRBs <= 100+1e-6 && util >= 0 && util <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestHandlesConcurrent resizes through handles from several goroutines
// while one fades the channel, one runs the scheduler and one churns a PLMN
// of its own; the race detector owns the verdict, the audit the books.
func TestHandlesConcurrent(t *testing.T) {
	e := newTestENB(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		h, _, _, err := e.ReserveThroughput(plmn(string(rune('a'+w))), 2)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(h Handle, w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if _, _, _, err := h.ResizeThroughput(float64(1 + (i+w)%5)); err != nil && !errors.Is(err, ErrInsufficientPRBs) {
					t.Errorf("resize through a live handle: %v", err)
				}
			}
		}(h, w)
	}
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			e.SetMeanCQI(float64(5 + i%10))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			e.ScheduleEpoch(DemandMbps{plmn("a"): 1}, true)
			_ = e.Snapshot()
		}
	}()
	go func() {
		defer wg.Done()
		p := plmn("churn")
		for i := 0; i < 500; i++ {
			h, _, _, err := e.ReserveThroughput(p, 1)
			if err != nil {
				continue // the resizers may hold every free PRB for a moment
			}
			e.Release(p)
			if err := h.Resize(1); !errors.Is(err, ErrUnknownPLMN) {
				t.Errorf("released handle resized: %v", err)
			}
		}
	}()
	wg.Wait()
	if msgs := e.AuditConservation(); len(msgs) != 0 {
		t.Fatal(msgs)
	}
}

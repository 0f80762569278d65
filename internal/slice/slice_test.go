package slice

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func validReq() Request {
	return Request{
		Tenant: "acme-automotive",
		SLA: SLA{
			ThroughputMbps: 50,
			MaxLatencyMs:   10,
			Duration:       time.Hour,
			PriceEUR:       100,
			PenaltyEUR:     2,
			Class:          ClassAutomotive,
		},
	}
}

func TestSLAValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*SLA)
		ok     bool
	}{
		{"valid", func(s *SLA) {}, true},
		{"zero throughput", func(s *SLA) { s.ThroughputMbps = 0 }, false},
		{"negative throughput", func(s *SLA) { s.ThroughputMbps = -1 }, false},
		{"zero latency", func(s *SLA) { s.MaxLatencyMs = 0 }, false},
		{"zero duration", func(s *SLA) { s.Duration = 0 }, false},
		{"negative price", func(s *SLA) { s.PriceEUR = -1 }, false},
		{"negative penalty", func(s *SLA) { s.PenaltyEUR = -0.5 }, false},
		{"zero price ok", func(s *SLA) { s.PriceEUR = 0 }, true},
		// Book-unit bounds: everything accepted converts into int64 books
		// that 2^20 live slices at the bound still cannot overflow.
		{"throughput overflows the books", func(s *SLA) { s.ThroughputMbps = 1e300 }, false},
		{"throughput just above the bound", func(s *SLA) { s.ThroughputMbps = math.Nextafter(MaxThroughputMbps, math.Inf(1)) }, false},
		{"throughput at the bound ok", func(s *SLA) { s.ThroughputMbps = MaxThroughputMbps }, true},
		{"bench reject_storm ask ok", func(s *SLA) { s.ThroughputMbps = 1 << 20 }, true},
		{"throughput below one book unit", func(s *SLA) { s.ThroughputMbps = 4e-4 }, false},
		{"one book unit ok", func(s *SLA) { s.ThroughputMbps = MinThroughputMbps }, true},
		{"price overflows the books", func(s *SLA) { s.PriceEUR = 1e300 }, false},
		{"price at the bound ok", func(s *SLA) { s.PriceEUR = MaxMoneyEUR }, true},
		{"penalty overflows the books", func(s *SLA) { s.PenaltyEUR = 1e300 }, false},
		{"penalty at the bound ok", func(s *SLA) { s.PenaltyEUR = MaxMoneyEUR }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sla := validReq().SLA
			tc.mutate(&sla)
			err := sla.Validate()
			if (err == nil) != tc.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

// TestBookUnitsAtTheBounds: conversion is exact at the input bounds, a
// 2^20-slice sum of bound-sized entries stays inside int64, and a book value
// survives the trip through its report float.
func TestBookUnitsAtTheBounds(t *testing.T) {
	if k := ToKbps(MaxThroughputMbps); k != 1e12 || k > math.MaxInt64>>20 {
		t.Errorf("ToKbps(max) = %d: not exact, or a 2^20-slice sum overflows", k)
	}
	if m := ToMicroEUR(MaxMoneyEUR); m != 1e12 || m > math.MaxInt64>>20 {
		t.Errorf("ToMicroEUR(max) = %d: not exact, or a 2^20-slice sum overflows", m)
	}
	if ToKbps(MinThroughputMbps) != 1 {
		t.Errorf("the smallest accepted throughput enters the books as %d, want 1", ToKbps(MinThroughputMbps))
	}
	for _, k := range []Kbps{1, 999, 98_496, 1e12 - 1, 1e12} {
		if got := ToKbps(k.Mbps()); got != k {
			t.Errorf("Kbps %d -> %v Mbps -> %d", k, k.Mbps(), got)
		}
	}
	for _, m := range []MicroEUR{1, 1_978_362_937, 1e12 - 1, 1e12} {
		if got := ToMicroEUR(m.EUR()); got != m {
			t.Errorf("MicroEUR %d -> %v EUR -> %d", m, m.EUR(), got)
		}
	}
}

func TestRequestValidateRequiresTenant(t *testing.T) {
	r := validReq()
	r.Tenant = ""
	if err := r.Validate(); err == nil {
		t.Fatal("empty tenant accepted")
	}
}

func TestNewRejectsInvalidRequest(t *testing.T) {
	r := validReq()
	r.SLA.Duration = -time.Second
	if _, err := New("s1", r); err == nil {
		t.Fatal("New accepted invalid request")
	}
}

func TestLifecycleHappyPath(t *testing.T) {
	s, err := New("s1", validReq())
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name string
		fn   func() error
		want State
	}{
		{"admit", s.Admit, StateAdmitted},
		{"install", s.BeginInstall, StateInstalling},
		{"activate", func() error { return s.Activate(time.Unix(1000, 0)) }, StateActive},
		{"reconf", func() error { return beginReconfigure(s) }, StateReconfiguring},
		{"reconf-done", s.EndReconfigure, StateActive},
		{"terminate", func() error { return s.Terminate("expired") }, StateTerminated},
	}
	for _, st := range steps {
		if err := st.fn(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if got := s.State(); got != st.want {
			t.Fatalf("%s: state %v, want %v", st.name, got, st.want)
		}
	}
	if got := s.Reason(); got != "expired" {
		t.Fatalf("reason %q", got)
	}
}

func TestActivateSetsExpiry(t *testing.T) {
	s, _ := New("s1", validReq())
	s.Admit()
	s.BeginInstall()
	now := time.Unix(5000, 0)
	s.Activate(now)
	if want := now.Add(time.Hour); !s.Expiry().Equal(want) {
		t.Fatalf("expiry %v, want %v", s.Expiry(), want)
	}
}

func TestInvalidTransitions(t *testing.T) {
	s, _ := New("s1", validReq())
	if err := s.Activate(time.Now()); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("pending->active error = %v", err)
	}
	s.Reject(Rejectf(RejectRadioCapacity, "ran", "no capacity"))
	if err := s.Admit(); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("rejected->admitted error = %v", err)
	}
	if got := s.State(); got != StateRejected {
		t.Fatalf("state mutated on failed transition: %v", got)
	}
}

func TestTerminatedIsTerminal(t *testing.T) {
	s, _ := New("s1", validReq())
	s.Admit()
	s.Terminate("op")
	for _, fn := range []func() error{s.Admit, s.BeginInstall, func() error { return beginReconfigure(s) }} {
		if err := fn(); !errors.Is(err, ErrBadTransition) {
			t.Fatalf("transition out of terminated allowed: %v", err)
		}
	}
}

// beginReconfigure enters Reconfiguring the way a resize that goes through
// does: a zero hysteresis band lets any target through a live slice.
func beginReconfigure(s *Slice) error {
	if _, _, resize := s.BeginResize(0, 0, 0); !resize {
		return fmt.Errorf("%w: no resize out of %s", ErrBadTransition, s.State())
	}
	return nil
}

// recordEpoch accounts an epoch whatever the slice's state, as replay does,
// and reports whether it was a violation.
func recordEpoch(s *Slice, demandMbps, servedMbps float64) bool {
	_, violated := s.RecordEpoch(demandMbps, servedMbps, false)
	return violated
}

// TestRecordEpochActiveOnly: the live epoch's RecordEpoch accounts only an
// Active slice and leaves any other untouched; replay's accounts it anyway.
func TestRecordEpochActiveOnly(t *testing.T) {
	s, _ := New("s1", validReq())
	s.Admit()
	if counted, violated := s.RecordEpoch(30, 20, true); counted || violated {
		t.Fatalf("admitted slice counted by the live epoch: counted=%v violated=%v", counted, violated)
	}
	if a := s.Accounting(); a.ServedEpochs != 0 || a.PenaltyEUR != 0 {
		t.Fatalf("uncounted epoch moved the books: %+v", a)
	}
	if counted, violated := s.RecordEpoch(30, 20, false); !counted || !violated {
		t.Fatalf("replayed epoch: counted=%v violated=%v, want both", counted, violated)
	}
	s.BeginInstall()
	s.Activate(time.Unix(1000, 0))
	if counted, violated := s.RecordEpoch(30, 30, true); !counted || violated {
		t.Fatalf("active slice: counted=%v violated=%v, want counted only", counted, violated)
	}
	s.Terminate("deleted")
	if counted, _ := s.RecordEpoch(30, 20, true); counted {
		t.Fatal("terminated slice counted by the live epoch")
	}
	if a := s.Accounting(); a.ServedEpochs != 2 || a.ViolationEpochs != 1 {
		t.Fatalf("books %+v, want 2 served epochs and 1 violation", a)
	}
}

// TestBeginResize pins the one-critical-section resize decision: the clamp
// to [floor, contract], the hysteresis band around the current reservation,
// which states hold something to resize, and Active -> Reconfiguring only
// when the resize goes ahead.
func TestBeginResize(t *testing.T) {
	const floor, threshold = 1, 0.05 // contract 50: the band is ±2.5 Mbps
	s, _ := New("s1", validReq())
	if _, live, resize := s.BeginResize(10, floor, threshold); live || resize {
		t.Fatalf("pending slice: live=%v resize=%v", live, resize)
	}
	s.Admit()
	s.BeginInstall()
	s.UpdateAllocation(func(a *Allocation) { a.AllocatedMbps = 20 })
	// Installing: resized in place, state kept.
	v, live, resize := s.BeginResize(99, floor, threshold)
	if !live || !resize || v.TargetMbps != 50 || v.AllocatedMbps != 20 || v.State != StateInstalling {
		t.Fatalf("installing grow: %+v live=%v resize=%v", v, live, resize)
	}
	if got := s.State(); got != StateInstalling {
		t.Fatalf("installing slice moved to %s", got)
	}
	s.Activate(time.Unix(1000, 0))
	for _, tc := range []struct {
		target, want float64
		resize       bool
	}{
		{21, 21, false},     // inside the band
		{17.6, 17.6, false}, // just inside it
		{17.4, 17.4, true},  // just outside it
		{0.2, floor, true},  // clamped up to the floor
		{80, 50, true},      // clamped down to the contract
	} {
		v, live, resize := s.BeginResize(tc.target, floor, threshold)
		if !live || resize != tc.resize || v.TargetMbps != tc.want || v.State != StateActive {
			t.Fatalf("target %v: %+v live=%v resize=%v, want target %v resize %v", tc.target, v, live, resize, tc.want, tc.resize)
		}
		want := StateActive
		if tc.resize {
			want = StateReconfiguring
		}
		if got := s.State(); got != want {
			t.Fatalf("target %v: state %s, want %s", tc.target, got, want)
		}
		if tc.resize {
			s.EndReconfigure()
		}
	}
	s.Terminate("deleted")
	if _, live, resize := s.BeginResize(0, floor, threshold); live || resize || s.State() != StateTerminated {
		t.Fatalf("terminated slice: live=%v resize=%v state %s", live, resize, s.State())
	}
}

func TestRecordEpochViolationAccounting(t *testing.T) {
	s, _ := New("s1", validReq()) // contract 50 Mbps, penalty 2
	s.Admit()

	// Demand below contract, fully served: no violation.
	if recordEpoch(s, 30, 30) {
		t.Fatal("fully served epoch counted as violation")
	}
	// Demand below contract, under-served: violation.
	if !recordEpoch(s, 30, 20) {
		t.Fatal("under-served epoch not counted")
	}
	// Demand above contract, served at contract: tenant exceeded SLA, no violation.
	if recordEpoch(s, 80, 50) {
		t.Fatal("over-demand epoch wrongly penalised")
	}
	// Demand above contract, served below contract: violation (entitled = contract).
	if !recordEpoch(s, 80, 40) {
		t.Fatal("under-contract service not penalised")
	}

	a := s.Accounting()
	if a.ViolationEpochs != 2 || a.ServedEpochs != 4 {
		t.Fatalf("epochs = %+v", a)
	}
	if a.PenaltyEUR != 4 {
		t.Fatalf("penalty %.2f, want 4", a.PenaltyEUR)
	}
	if a.PriceEUR != 100 || a.NetEUR != 96 {
		t.Fatalf("price %.2f net %.2f", a.PriceEUR, a.NetEUR)
	}
	if a.ViolationRate != 0.5 {
		t.Fatalf("violation rate %.2f", a.ViolationRate)
	}
}

func TestRejectedSliceEarnsNothing(t *testing.T) {
	s, _ := New("s1", validReq())
	s.Reject(Rejectf(RejectPLMNExhausted, "", "full"))
	if a := s.Accounting(); a.PriceEUR != 0 || a.NetEUR != 0 {
		t.Fatalf("rejected slice has revenue: %+v", a)
	}
}

func TestAllocationCloneIsDeep(t *testing.T) {
	s, _ := New("s1", validReq())
	s.UpdateAllocation(func(a *Allocation) {
		*a = Allocation{
			AllocatedMbps: 40,
			PRBs:          map[string]int{"enb1": 10},
			PathIDs:       []string{"p1"},
		}
	})
	a := s.Allocation()
	a.PRBs["enb1"] = 99
	a.PathIDs[0] = "mutated"
	b := s.Allocation()
	if b.PRBs["enb1"] != 10 || b.PathIDs[0] != "p1" {
		t.Fatalf("allocation aliased: %+v", b)
	}
}

// TestUpdateAllocationInPlace: the in-place path hands containers over
// without copying, the narrow accessors read what it wrote, and every
// copy-returning view stays detached from the live containers.
func TestUpdateAllocationInPlace(t *testing.T) {
	s, _ := New("s1", validReq())
	prbs := map[string]int{"enb1": 10}
	s.UpdateAllocation(func(a *Allocation) {
		a.AllocatedMbps = 40
		a.PRBs = prbs
		a.PathIDs = []string{"p1"}
		a.PLMN = PLMN{MCC: "001", MNC: "07"}
		a.DataCenter = "edge"
		a.EPCID = "s1/epc"
	})
	if s.AllocatedMbps() != 40 || s.PLMN() != (PLMN{MCC: "001", MNC: "07"}) || s.DataCenter() != "edge" || s.EPCID() != "s1/epc" {
		t.Fatalf("accessors disagree with the update: %+v", s.Allocation())
	}
	before := s.Snapshot()
	s.UpdateAllocation(func(a *Allocation) {
		a.PRBs["enb1"] = 25 // the live map, mutated in place
		a.AllocatedMbps = 90
	})
	if before.Allocation.PRBs["enb1"] != 10 || before.Allocation.AllocatedMbps != 40 {
		t.Fatalf("earlier snapshot changed with the live allocation: %+v", before.Allocation)
	}
	if got := s.Persist().Allocation.PRBs["enb1"]; got != 25 {
		t.Fatalf("in-place update lost: %d", got)
	}
}

func TestSnapshotReflectsState(t *testing.T) {
	s, _ := New("s9", validReq())
	s.Admit()
	s.UpdateAllocation(func(a *Allocation) { a.AllocatedMbps = 33 })
	snap := s.Snapshot()
	if snap.ID != "s9" || snap.State != "admitted" || snap.Class != "automotive" {
		t.Fatalf("snapshot %+v", snap)
	}
	if snap.Allocation.AllocatedMbps != 33 {
		t.Fatalf("snapshot alloc %v", snap.Allocation.AllocatedMbps)
	}
}

func TestServiceClassString(t *testing.T) {
	if ClassEHealth.String() != "e-health" || ClassEMBB.String() != "eMBB" {
		t.Fatal("class names wrong")
	}
	if ServiceClass(99).String() != "ServiceClass(99)" {
		t.Fatal("unknown class formatting")
	}
}

// Property: penalties are monotonically non-decreasing and equal
// violationEpochs * penaltyEUR.
func TestPropertyPenaltyAccounting(t *testing.T) {
	f := func(epochs []struct{ D, S uint8 }) bool {
		s, _ := New("p", validReq())
		s.Admit()
		violations := 0
		for _, e := range epochs {
			d, srv := float64(e.D), float64(e.S)
			if recordEpoch(s, d, srv) {
				violations++
			}
		}
		a := s.Accounting()
		return a.ViolationEpochs == violations &&
			a.PenaltyEUR == float64(violations)*2 &&
			a.ServedEpochs == len(epochs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

package invariant

import (
	"strings"
	"testing"
	"time"

	"repro/internal/ctrl"
	"repro/internal/slice"
	"repro/internal/testbed"
)

func testEnv(t *testing.T) *testbed.Testbed {
	t.Helper()
	tb, err := testbed.New(testbed.Config{MECHosts: 1, MECHostCPUs: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// reserveSlice installs one slice's resources directly through the domain
// controllers and returns the matching SliceView.
func reserveSlice(t *testing.T, tb *testbed.Testbed, id slice.ID, plmn slice.PLMN, mbps float64) SliceView {
	t.Helper()
	tx := ctrl.Tx{Slice: id, PLMN: plmn, SLA: slice.SLA{ThroughputMbps: mbps, MaxLatencyMs: 50,
		Duration: time.Hour, Class: slice.ClassEMBB}, DataCenter: testbed.CoreDC, Mbps: mbps, LatencyBudgetMs: 40,
		Binding: new(ctrl.Binding)}
	v := SliceView{ID: id, State: "active", PLMN: plmn, LedgerKbps: slice.ToKbps(mbps), DC: testbed.CoreDC}
	rg, cause := tb.Ctrl.RAN.Reserve(tx)
	if cause != nil {
		t.Fatal(cause)
	}
	_ = rg
	pg, cause := tb.Ctrl.Transport.Reserve(tx)
	if cause != nil {
		t.Fatal(cause)
	}
	var alloc slice.Allocation
	pg.Apply(&alloc)
	v.PathIDs = alloc.PathIDs
	cg, cause := tb.Ctrl.Cloud.Reserve(tx)
	if cause != nil {
		t.Fatal(cause)
	}
	cg.Apply(&alloc)
	v.StackID, v.EPCID = alloc.StackID, alloc.EPCID
	mg, cause := tb.Ctrl.Extra[0].Reserve(tx)
	if cause != nil {
		t.Fatal(cause)
	}
	mg.Apply(&alloc)
	v.MECAppID = alloc.MECAppID
	return v
}

func plmn(mnc string) slice.PLMN { return slice.PLMN{MCC: "001", MNC: mnc} }

// TestSweepCleanBaseline proves the sweep reports nothing on a consistent
// registry/substrate cut, both empty and with one fully installed slice.
func TestSweepCleanBaseline(t *testing.T) {
	tb := testEnv(t)
	a := New(Options{})
	a.Sweep(SweepInput{TB: tb, PLMNOwners: map[slice.PLMN]slice.ID{}})
	if err := a.Err(); err != nil {
		t.Fatalf("empty testbed not clean: %v", err)
	}

	p := plmn("01")
	v := reserveSlice(t, tb, "s-1", p, 20)
	a.Sweep(SweepInput{
		TB:         tb,
		Slices:     []SliceView{v},
		LedgerLoad: slice.ToKbps(20),
		PLMNOwners: map[slice.PLMN]slice.ID{p: "s-1"},
	})
	if err := a.Err(); err != nil {
		t.Fatalf("installed slice not clean: %v", err)
	}
	if st := a.Stats(); st.Sweeps != 2 {
		t.Fatalf("stats %+v, want 2 sweeps", st)
	}

	// The books are integers and the comparison is ==: a single unit of
	// drift is a violation.
	a.Sweep(SweepInput{
		TB:         tb,
		Slices:     []SliceView{v},
		LedgerLoad: slice.ToKbps(20) + 1,
		PLMNOwners: map[slice.PLMN]slice.ID{p: "s-1"},
	})
	if got := a.Violations(); len(got) != 1 || !strings.Contains(got[0].Detail, "capacity ledger 20001 kbps != Σ live slice entries 20000") {
		t.Fatalf("one unit of ledger drift not flagged exactly once: %v", got)
	}
}

// TestSweepDetectsLeaks seeds every class of leak (orphaned substrate
// resources, dangling slice records, ledger drift) and asserts each is
// flagged.
func TestSweepDetectsLeaks(t *testing.T) {
	tb := testEnv(t)
	p := plmn("01")
	reserveSlice(t, tb, "s-1", p, 20)

	// No live slices at all: the radio PRBs, transport paths, cloud stack
	// and MEC app all become leaks; the ledger total has no owner.
	a := New(Options{})
	a.Sweep(SweepInput{TB: tb, LedgerLoad: slice.ToKbps(20), PLMNOwners: map[slice.PLMN]slice.ID{p: "s-1"}})
	wants := []string{"PLMN", "transport path", "cloud stack", "mec app", "capacity ledger"}
	got := a.Violations()
	for _, want := range wants {
		found := false
		for _, v := range got {
			if strings.Contains(v.Detail, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no violation mentioning %q in %v", want, got)
		}
	}
}

// TestSweepDetectsDanglingRecords is the mirror image: a live slice records
// resources the substrates no longer hold.
func TestSweepDetectsDanglingRecords(t *testing.T) {
	tb := testEnv(t)
	p := plmn("01")
	v := reserveSlice(t, tb, "s-1", p, 20)
	// Tear everything down behind the registry's back.
	tb.Ctrl.RAN.Release("s-1", p)
	tb.Ctrl.Transport.Release("s-1", p)
	tb.Ctrl.Cloud.Release("s-1", p)
	tb.Ctrl.Extra[0].Release("s-1", p)

	a := New(Options{})
	a.Sweep(SweepInput{TB: tb, Slices: []SliceView{v}, LedgerLoad: slice.ToKbps(20),
		PLMNOwners: map[slice.PLMN]slice.ID{p: "s-1"}})
	wants := []string{"no PRB reservation", "transport no longer holds", "no longer holds", "mec app"}
	got := a.Violations()
	for _, want := range wants {
		found := false
		for _, vv := range got {
			if strings.Contains(vv.Detail, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no violation mentioning %q in %v", want, got)
		}
	}
}

// TestSweepPendingExemption: resources of an in-flight install (the squeeze
// window) are not leaks, and the ledger equality check stands down.
func TestSweepPendingExemption(t *testing.T) {
	tb := testEnv(t)
	p := plmn("01")
	reserveSlice(t, tb, "s-1", p, 20)
	a := New(Options{})
	a.Sweep(SweepInput{TB: tb, LedgerLoad: slice.ToKbps(20),
		PLMNOwners: map[slice.PLMN]slice.ID{p: "s-1"},
		Pending:    map[slice.ID]bool{"s-1": true}})
	if err := a.Err(); err != nil {
		t.Fatalf("pending install flagged: %v", err)
	}
}

// TestEventStreamInvariants drives the observer with a legal sequence, then
// a gap and an illegal transition.
func TestEventStreamInvariants(t *testing.T) {
	a := New(Options{})
	a.ObserveEvent(1, "s-1", "submitted", "pending")
	a.ObserveEvent(2, "s-1", "admitted", "installing")
	a.ObserveEvent(3, "s-1", "resized", "installing")
	a.ObserveEvent(4, "s-1", "installed", "active")
	a.ObserveEvent(5, "", "link-failed", "")
	a.ObserveEvent(6, "s-1", "deleted", "terminated")
	if err := a.Err(); err != nil {
		t.Fatalf("legal sequence flagged: %v", err)
	}

	a.ObserveEvent(8, "s-2", "submitted", "pending") // gap: 6 -> 8
	if len(a.Violations()) != 1 || a.Violations()[0].Check != "event-gap" {
		t.Fatalf("gap not flagged: %v", a.Violations())
	}
	a.ObserveEvent(9, "s-2", "installed", "active") // pending -> active is illegal
	found := false
	for _, v := range a.Violations() {
		if v.Check == "state-machine" {
			found = true
		}
	}
	if !found {
		t.Fatalf("illegal transition not flagged: %v", a.Violations())
	}

	// A slice whose first event is not its submission means the submitted
	// event was lost or reordered — flagged even for rejections, which
	// also publish submitted first.
	lost := New(Options{})
	lost.ObserveEvent(1, "s-3", "rejected", "rejected")
	if vs := lost.Violations(); len(vs) != 1 || vs[0].Check != "state-machine" {
		t.Fatalf("rejected-first stream not flagged: %v", vs)
	}
}

// TestEpochMonotonicity flags regressing epoch counters and timestamps.
func TestEpochMonotonicity(t *testing.T) {
	a := New(Options{})
	t0 := time.Unix(1000, 0)
	a.ObserveEpoch(1, t0)
	a.ObserveEpoch(2, t0.Add(time.Minute))
	if err := a.Err(); err != nil {
		t.Fatalf("monotone epochs flagged: %v", err)
	}
	a.ObserveEpoch(4, t0.Add(2*time.Minute)) // skipped 3
	a.ObserveEpoch(5, t0)                    // time regressed
	vs := a.Violations()
	if len(vs) != 2 {
		t.Fatalf("want 2 violations, got %v", vs)
	}
	for _, v := range vs {
		if v.Check != "epoch-monotonic" {
			t.Fatalf("unexpected check %q", v.Check)
		}
	}
}

// TestCheckSliceReleased flags every surviving ID-keyed resource after a
// supposed teardown and stays quiet once everything is released.
func TestCheckSliceReleased(t *testing.T) {
	tb := testEnv(t)
	p := plmn("01")
	reserveSlice(t, tb, "s-1", p, 20)

	a := New(Options{})
	a.CheckSliceReleased(tb, "s-1")
	if n := len(a.Violations()); n != 4 { // 2 paths (one per eNB) + stack + app
		t.Fatalf("want 4 leak violations, got %d: %v", n, a.Violations())
	}

	tb.Ctrl.Transport.Release("s-1", p)
	tb.Ctrl.Cloud.Release("s-1", p)
	tb.Ctrl.Extra[0].Release("s-1", p)
	clean := New(Options{})
	clean.CheckSliceReleased(tb, "s-1")
	if err := clean.Err(); err != nil {
		t.Fatalf("released slice flagged: %v", err)
	}
}

// TestViolationLimitAndCallback: the retention cap holds and the callback
// fires for every breach.
func TestViolationLimitAndCallback(t *testing.T) {
	calls := 0
	a := New(Options{OnViolation: func(Violation) { calls++ }})
	for i := 0; i <= violationLimit+1; i++ {
		a.ObserveEpoch(10+2*i, time.Unix(int64(1000+i), 0)) // every call after the first jumps
	}
	if got := len(a.Violations()); got != violationLimit {
		t.Fatalf("retained %d, want %d", got, violationLimit)
	}
	if st := a.Stats(); st.Violations != violationLimit+1 {
		t.Fatalf("stats %+v, want %d total violations", st, violationLimit+1)
	}
	if calls != violationLimit+1 {
		t.Fatalf("callback fired %d times, want %d", calls, violationLimit+1)
	}
}

// TestFedSweepBooksAreExact: the federation books are integers and FedSweep
// compares them with ==, so a cut that balances is clean and one unit of
// drift in either identity is flagged.
func TestFedSweepBooksAreExact(t *testing.T) {
	cut := func(headroom, reserved slice.Kbps) FedSweepInput {
		return FedSweepInput{
			Members: []FedMemberView{{
				Name: "east", Alive: true,
				Advertised: 100_000, Ledger: 40_000, Headroom: headroom, Reserved: reserved,
				FedSlices: map[slice.ID]slice.ID{"s-1": "f-1"},
			}},
			Spans: []FedSpanView{{ID: "f-1", Legs: []FedLegView{{Member: "east", Leg: "s-1", Contract: 20_000}}}},
		}
	}
	for _, tc := range []struct {
		name               string
		headroom, reserved slice.Kbps
		want               string // "" = clean
	}{
		{"balanced", 60_000, 20_000, ""},
		{"headroom one unit over", 60_001, 20_000, "headroom 60001 + ledger 40000 != advertised 100000"},
		{"reserved one unit under", 60_000, 19_999, "reserved book 19999 kbps != Σ registered legs 20000"},
	} {
		a := New(Options{})
		a.FedSweep(cut(tc.headroom, tc.reserved))
		got := a.Violations()
		switch {
		case tc.want == "" && len(got) != 0:
			t.Errorf("%s: flagged %v", tc.name, got)
		case tc.want != "" && (len(got) != 1 || !strings.Contains(got[0].Detail, tc.want)):
			t.Errorf("%s: violations %v, want exactly one mentioning %q", tc.name, got, tc.want)
		}
	}
}

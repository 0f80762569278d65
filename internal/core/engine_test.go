package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ctrl"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/testbed"
)

// faultDomain decorates a real domain through ctrl.Set.Wrap: it can fail
// Reserve or Commit on one targeted domain and records every lifecycle verb
// into a shared log so tests can assert rollback ordering.
type faultDomain struct {
	inner       ctrl.Domain
	target      string // domain name whose stage fails ("" = none)
	failReserve bool
	failCommit  bool

	mu  *sync.Mutex
	log *[]string
}

func (f *faultDomain) record(event string) {
	f.mu.Lock()
	*f.log = append(*f.log, event+":"+f.inner.Domain())
	f.mu.Unlock()
}

func (f *faultDomain) Domain() string       { return f.inner.Domain() }
func (f *faultDomain) Utilization() float64 { return f.inner.Utilization() }
func (f *faultDomain) PushTelemetry(store *monitor.Store, now time.Time) {
	f.inner.PushTelemetry(store, now)
}
func (f *faultDomain) Feasible(tx ctrl.Tx) *slice.RejectionCause { return f.inner.Feasible(tx) }
func (f *faultDomain) Resize(tx ctrl.Tx, mbps float64) (ctrl.Grant, error) {
	return f.inner.Resize(tx, mbps)
}
func (f *faultDomain) Release(id slice.ID, p slice.PLMN) {
	f.record("release")
	f.inner.Release(id, p)
}

func (f *faultDomain) Reserve(tx ctrl.Tx) (ctrl.Grant, *slice.RejectionCause) {
	if f.failReserve && f.inner.Domain() == f.target {
		f.record("fail-reserve")
		return nil, slice.Rejectf(slice.RejectOther, f.inner.Domain(), "%s: injected reserve fault", f.inner.Domain())
	}
	g, cause := f.inner.Reserve(tx)
	if cause == nil {
		f.record("reserve")
	}
	return g, cause
}

func (f *faultDomain) Commit(g ctrl.Grant) error {
	if f.failCommit && f.inner.Domain() == f.target {
		f.record("fail-commit")
		return fmt.Errorf("%s: injected commit fault", f.inner.Domain())
	}
	f.record("commit")
	return f.inner.Commit(g)
}

func (f *faultDomain) Abort(g ctrl.Grant) {
	f.record("abort")
	f.inner.Abort(g)
}

// faultEnv builds a four-domain testbed (MEC enabled) whose engine domains
// are wrapped with the fault injector.
func faultEnv(t *testing.T, target string, failReserve, failCommit bool) (*Orchestrator, *testbed.Testbed, *[]string) {
	t.Helper()
	var mu sync.Mutex
	log := &[]string{}
	tb, err := testbed.New(testbed.Config{MECHosts: 1, MECHostCPUs: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tb.Ctrl.Wrap = func(d ctrl.Domain) ctrl.Domain {
		return &faultDomain{inner: d, target: target, failReserve: failReserve, failCommit: failCommit, mu: &mu, log: log}
	}
	// Peak provisioning: no squeeze retries, so one injected reserve fault
	// rejects deterministically.
	o := New(Config{}, tb, sim.NewRealtimeClock(), monitor.NewStore(64))
	return o, tb, log
}

// assertPristine checks that every substrate is back at its empty baseline:
// PLMN slots, PRBs, link bandwidth, stacks/hosts, MEC apps and the capacity
// ledger — the leak check after a rolled-back installation.
func assertPristine(t *testing.T, o *Orchestrator, tb *testbed.Testbed) {
	t.Helper()
	if avail := o.plmns.Available(); avail != o.cfg.PLMNLimit {
		t.Fatalf("PLMN slots leaked: %d available, want %d", avail, o.cfg.PLMNLimit)
	}
	for _, e := range tb.RAN.All() {
		if e.FreePRBs() != e.TotalPRBs() {
			t.Fatalf("PRBs leaked on %s: %d free of %d", e.Name(), e.FreePRBs(), e.TotalPRBs())
		}
	}
	if mean, _ := tb.Transport.Utilization(); mean != 0 {
		t.Fatalf("transport bandwidth leaked: utilization %g", mean)
	}
	for _, dc := range tb.Region.All() {
		if c := dc.Capacity(); c.Stacks != 0 || c.VMs != 0 || c.UsedVCPUs != 0 {
			t.Fatalf("cloud leaked in %s: %+v", dc.Name(), c)
		}
	}
	if tb.MEC != nil {
		if c := tb.MEC.Capacity(); c.Apps != 0 || c.UsedCPUs != 0 {
			t.Fatalf("MEC apps leaked: %+v", c)
		}
	}
	if load := o.ledger.Load(); load != 0 {
		t.Fatalf("capacity ledger leaked %d kbps", load)
	}
}

// abortsOf filters the event log down to the abort sequence.
func abortsOf(log []string) []string {
	var out []string
	for _, e := range log {
		if strings.HasPrefix(e, "abort:") {
			out = append(out, strings.TrimPrefix(e, "abort:"))
		}
	}
	return out
}

// TestInstallFaultInjectionRollsBackInReverse fails each domain's reserve
// and commit stage in turn through a generic Domain wrapper and asserts
// that (i) the submission converts to a rejection, (ii) rollback aborts the
// granted domains in exact reverse acquisition order, and (iii) nothing
// leaks: PLMN slots, PRBs, link bandwidth, hosts/stacks, MEC apps and
// capacity-ledger entries all return to baseline.
func TestInstallFaultInjectionRollsBackInReverse(t *testing.T) {
	// Logical acquisition order is chain (ran, transport) then the
	// concurrent group in registration order (cloud, mec).
	order := []string{"ran", "transport", "cloud", "mec"}
	granted := func(failing string, stage string) []string {
		if stage == "commit" {
			return order // everything reserved before the first commit
		}
		var g []string
		for _, d := range order {
			if d == failing {
				// Chain domains after the failing one never reserve;
				// concurrent-group domains always do.
				if d == "ran" || d == "transport" {
					continue
				}
				continue
			}
			if failing == "ran" && d == "transport" {
				continue // chain stops at the first failure
			}
			g = append(g, d)
		}
		return g
	}
	reverse := func(xs []string) []string {
		out := make([]string, len(xs))
		for i, x := range xs {
			out[len(xs)-1-i] = x
		}
		return out
	}

	for _, stage := range []string{"reserve", "commit"} {
		for _, target := range order {
			t.Run(stage+"/"+target, func(t *testing.T) {
				o, tb, log := faultEnv(t, target, stage == "reserve", stage == "commit")
				sl, err := o.Submit(req("fault", 20, 50, time.Hour, 50), nil)
				if err != nil {
					t.Fatal(err)
				}
				if sl.State() != slice.StateRejected {
					t.Fatalf("state %v, want rejected", sl.State())
				}
				cause, ok := sl.Cause()
				if !ok || !errors.Is(&cause, slice.RejectOther) {
					t.Fatalf("cause %+v (ok %v)", cause, ok)
				}
				want := reverse(granted(target, stage))
				if got := abortsOf(*log); !equalStrings(got, want) {
					t.Fatalf("abort order %v, want %v (log %v)", got, want, *log)
				}
				assertPristine(t, o, tb)
			})
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMECDomainThroughGenericEngine proves the pluggable fourth domain:
// with MECHosts enabled, a slice's edge app is placed at install, resized by
// the overbooking loop, released at teardown and rolled back on rejection —
// all through the generic engine, never through MEC-specific core code.
func TestMECDomainThroughGenericEngine(t *testing.T) {
	s := sim.NewSimulator(3)
	tb, err := testbed.New(testbed.Config{MECHosts: 1, MECHostCPUs: 4}, s.Rand())
	if err != nil {
		t.Fatal(err)
	}
	o := New(Config{Overbook: true, Risk: 0.9}, tb, s, monitor.NewStore(256))

	// 40 Mbps → 2-CPU app on the 4-CPU pool.
	sl, err := o.Submit(req("edge-app", 40, 50, time.Hour, 100), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sl.State() == slice.StateRejected {
		t.Fatalf("rejected: %s", sl.Reason())
	}
	alloc := sl.Allocation()
	if alloc.MECAppID != string(sl.ID())+"/app" {
		t.Fatalf("MEC app not recorded in allocation: %+v", alloc)
	}
	app, ok := tb.MEC.App(alloc.MECAppID)
	if !ok || app.CPU != 2 {
		t.Fatalf("app %+v (ok %v)", app, ok)
	}

	// The overbooking squeeze resizes the app with the slice.
	s.RunFor(15 * time.Second) // activate
	if err := o.RecordDemand(sl.ID(), 5); err != nil {
		t.Fatal(err)
	}
	o.RunEpoch()
	o.RunEpoch() // second epoch: forecast has observations, resize fires
	if app, _ := tb.MEC.App(alloc.MECAppID); app.CPU != 1 {
		t.Fatalf("app CPU %v after squeeze, want 1 (alloc %.1f Mbps)", app.CPU, sl.Allocation().AllocatedMbps)
	}

	// A second big slice cannot fit the remaining MEC CPUs: typed
	// mec-capacity rejection from the admission dry run.
	big, err := o.Submit(req("too-big", 80, 50, time.Hour, 100), nil)
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := big.Cause(); c.Code != slice.RejectMECCapacity {
		t.Fatalf("cause %+v, want mec-capacity", c)
	}

	// Teardown releases the app.
	if err := o.Delete(sl.ID()); err != nil {
		t.Fatal(err)
	}
	if u := tb.MEC.Utilization(); u != 0 {
		t.Fatalf("MEC utilization %g after teardown", u)
	}
}

// TestMECRestorationKeepsApp drives a link failure with the MEC domain
// registered: restoration re-routes the transport paths while the edge app
// stays placed — the restore path runs through the same generic surface.
func TestMECRestorationKeepsApp(t *testing.T) {
	s := sim.NewSimulator(4)
	tb, err := testbed.New(testbed.Config{MECHosts: 1, MECHostCPUs: 8, RedundantTransport: true}, s.Rand())
	if err != nil {
		t.Fatal(err)
	}
	o := New(Config{}, tb, s, monitor.NewStore(256))
	sl, err := o.Submit(req("resilient", 20, 50, time.Hour, 50), nil)
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(15 * time.Second)
	if sl.State() != slice.StateActive {
		t.Fatalf("state %v: %s", sl.State(), sl.Reason())
	}
	rep, err := o.HandleLinkFailure(testbed.ENBName(0), testbed.Switch)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Restored) != 1 || len(rep.Dropped) != 0 {
		t.Fatalf("report %+v", rep)
	}
	if _, ok := tb.MEC.App(sl.Allocation().MECAppID); !ok {
		t.Fatal("edge app lost during transport restoration")
	}
}

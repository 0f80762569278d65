package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/ctrl"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

// auditEnv builds a four-domain simulated orchestrator with the invariant
// auditor attached.
func auditEnv(t *testing.T, cfg Config) (*Orchestrator, *testbed.Testbed, *sim.Simulator) {
	t.Helper()
	s := sim.NewSimulator(7)
	tb, err := testbed.New(testbed.Config{MECHosts: 1, MECHostCPUs: 16, RedundantTransport: true}, s.Rand())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Audit = true
	o := New(cfg, tb, s, monitor.NewStore(256))
	return o, tb, s
}

// TestAuditCleanUnderFullLifecycle drives every lifecycle path — install,
// epochs with resizes, tenant delete, link failure with restoration, expiry
// — with the auditor attached and asserts not a single invariant tripped
// while the sweeps and event checks demonstrably ran.
func TestAuditCleanUnderFullLifecycle(t *testing.T) {
	o, _, s := auditEnv(t, Config{Overbook: true, Risk: 0.9, Epoch: time.Minute})
	o.Start()
	defer o.Stop()

	var ids []slice.ID
	for i := 0; i < 4; i++ {
		sl, err := o.Submit(req("tenant", 20, 50, 30*time.Minute, 50), nil)
		if err != nil {
			t.Fatal(err)
		}
		if sl.State() == slice.StateRejected {
			t.Fatalf("unexpected rejection: %s", sl.Reason())
		}
		ids = append(ids, sl.ID())
	}
	if err := s.RunFor(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := o.RecordDemand(id, 8); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunFor(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := o.Delete(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := o.HandleLinkFailure(testbed.ENBName(0), testbed.Switch); err != nil {
		t.Fatal(err)
	}
	if err := o.RestoreLink(testbed.ENBName(0), testbed.Switch); err != nil {
		t.Fatal(err)
	}
	// Run past every remaining expiry.
	if err := s.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}

	a := o.Auditor()
	if a == nil {
		t.Fatal("auditor not attached")
	}
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Sweeps < 10 || st.Events < 10 {
		t.Fatalf("auditor barely ran: %+v", st)
	}
}

// TestAuditDetectsSeededLeak plants an orphan resource behind the
// orchestrator's back and asserts the next epoch sweep flags it.
func TestAuditDetectsSeededLeak(t *testing.T) {
	o, tb, _ := auditEnv(t, Config{})
	if _, err := tb.MEC.Place("ghost/app", "ghost", 1); err != nil {
		t.Fatal(err)
	}
	o.RunEpoch()
	found := false
	for _, v := range o.Auditor().Violations() {
		if v.Check == "leak" {
			found = true
		}
	}
	if !found {
		t.Fatalf("orphan app not flagged: %v", o.Auditor().Violations())
	}
}

// TestAuditDetectsCookedLedger corrupts the capacity ledger and asserts the
// sweep reports the drift.
func TestAuditDetectsCookedLedger(t *testing.T) {
	o, _, _ := auditEnv(t, Config{})
	o.ledger.Release(-1) // inject one unit of phantom load: the sweep compares with ==
	o.RunEpoch()
	found := false
	for _, v := range o.Auditor().Violations() {
		if v.Check == "ledger" {
			found = true
		}
	}
	if !found {
		t.Fatalf("ledger drift not flagged: %v", o.Auditor().Violations())
	}
}

// TestFaultInjectorRollbackAuditClean arms reserve and commit faults on
// every domain through the first-class ctrl.FaultInjector capability and
// asserts (i) the submission rejects with the typed fault-injected code,
// (ii) nothing leaks (engine assertPristine plus the invariant auditor's
// scoped and sweep checks stay clean).
func TestFaultInjectorRollbackAuditClean(t *testing.T) {
	domains := func(tb *testbed.Testbed) map[string]ctrl.Controller {
		return map[string]ctrl.Controller{
			"ran":       tb.Ctrl.RAN,
			"transport": tb.Ctrl.Transport,
			"cloud":     tb.Ctrl.Cloud,
			"mec":       tb.Ctrl.Extra[0],
		}
	}
	for _, stage := range []ctrl.FaultStage{ctrl.FaultReserve, ctrl.FaultCommit} {
		for _, name := range []string{"ran", "transport", "cloud", "mec"} {
			t.Run(stage.String()+"/"+name, func(t *testing.T) {
				o, tb, _ := auditEnv(t, Config{})
				fi, ok := ctrl.Injector(domains(tb)[name])
				if !ok {
					t.Fatalf("%s does not implement FaultInjector", name)
				}
				fi.InjectFault(ctrl.Fault{Stage: stage, Remaining: 1})
				sl, err := o.Submit(req("chaos", 20, 50, time.Hour, 50), nil)
				if err != nil {
					t.Fatal(err)
				}
				if sl.State() != slice.StateRejected {
					t.Fatalf("state %v, want rejected", sl.State())
				}
				cause, ok := sl.Cause()
				if !ok || !errors.Is(&cause, slice.RejectFaultInjected) {
					t.Fatalf("cause %+v (ok %v), want fault-injected", cause, ok)
				}
				assertPristine(t, o, tb)
				o.RunEpoch() // full sweep over the rolled-back state
				if err := o.Auditor().Err(); err != nil {
					t.Fatal(err)
				}
				// The fault disarmed itself (Remaining: 1): the next
				// submission must succeed.
				sl2, err := o.Submit(req("chaos", 20, 50, time.Hour, 50), nil)
				if err != nil {
					t.Fatal(err)
				}
				if sl2.State() == slice.StateRejected {
					t.Fatalf("post-fault submission rejected: %s", sl2.Reason())
				}
			})
		}
	}
}

// panicDomain decorates a Domain to panic in a chosen verb — the
// double-release / substrate-corruption stand-in.
type panicDomain struct {
	inner   ctrl.Domain
	target  string
	reserve bool
	commit  bool
}

func (p *panicDomain) Domain() string       { return p.inner.Domain() }
func (p *panicDomain) Utilization() float64 { return p.inner.Utilization() }
func (p *panicDomain) PushTelemetry(store *monitor.Store, now time.Time) {
	p.inner.PushTelemetry(store, now)
}
func (p *panicDomain) Feasible(tx ctrl.Tx) *slice.RejectionCause { return p.inner.Feasible(tx) }
func (p *panicDomain) Resize(tx ctrl.Tx, mbps float64) (ctrl.Grant, error) {
	return p.inner.Resize(tx, mbps)
}
func (p *panicDomain) Release(id slice.ID, pl slice.PLMN) { p.inner.Release(id, pl) }
func (p *panicDomain) Abort(g ctrl.Grant)                 { p.inner.Abort(g) }

func (p *panicDomain) Reserve(tx ctrl.Tx) (ctrl.Grant, *slice.RejectionCause) {
	if p.reserve && p.inner.Domain() == p.target {
		panic("injected reserve panic")
	}
	return p.inner.Reserve(tx)
}

func (p *panicDomain) Commit(g ctrl.Grant) error {
	if p.commit && p.inner.Domain() == p.target {
		panic("injected commit panic")
	}
	return p.inner.Commit(g)
}

// TestDomainPanicBecomesTypedRejection proves the engine converts a domain
// panic into a typed internal rejection with full rollback instead of
// crashing: for each domain and stage, the submission rejects with
// RejectInternal and the substrates return to baseline.
func TestDomainPanicBecomesTypedRejection(t *testing.T) {
	for _, stage := range []string{"reserve", "commit"} {
		for _, target := range []string{"ran", "transport", "cloud", "mec"} {
			t.Run(stage+"/"+target, func(t *testing.T) {
				tb, err := testbed.New(testbed.Config{MECHosts: 1, MECHostCPUs: 16}, nil)
				if err != nil {
					t.Fatal(err)
				}
				tb.Ctrl.Wrap = func(d ctrl.Domain) ctrl.Domain {
					return &panicDomain{inner: d, target: target,
						reserve: stage == "reserve", commit: stage == "commit"}
				}
				o := New(Config{Audit: true}, tb, sim.NewRealtimeClock(), monitor.NewStore(64))
				sl, err := o.Submit(req("panicky", 20, 50, time.Hour, 50), nil)
				if err != nil {
					t.Fatal(err)
				}
				if sl.State() != slice.StateRejected {
					t.Fatalf("state %v, want rejected", sl.State())
				}
				cause, ok := sl.Cause()
				if !ok || !errors.Is(&cause, slice.RejectInternal) {
					t.Fatalf("cause %+v (ok %v), want internal", cause, ok)
				}
				assertPristine(t, o, tb)
				if err := o.Auditor().Err(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestAbortIsSingleShot proves the PLMN-recycling hazard is closed: a grant
// aborted twice releases its radio reservation exactly once, so a new
// owner's PRBs survive a stale second abort.
func TestAbortIsSingleShot(t *testing.T) {
	tb, err := testbed.New(testbed.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := slice.PLMN{MCC: "001", MNC: "01"}
	tx := ctrl.Tx{Slice: "s-1", PLMN: p, Mbps: 20,
		SLA:     slice.SLA{ThroughputMbps: 20, MaxLatencyMs: 50, Duration: time.Hour, Class: slice.ClassEMBB},
		Binding: new(ctrl.Binding)}
	g, cause := tb.Ctrl.RAN.Reserve(tx)
	if cause != nil {
		t.Fatal(cause)
	}
	tb.Ctrl.RAN.Abort(g)
	// The PLMN slot is recycled by a second slice.
	tx2 := tx
	tx2.Slice = "s-2"
	tx2.Binding = new(ctrl.Binding) // each slice has its own, as in production
	g2, cause := tb.Ctrl.RAN.Reserve(tx2)
	if cause != nil {
		t.Fatal(cause)
	}
	// A stale duplicate abort of the first grant must not free s-2's PRBs.
	tb.Ctrl.RAN.Abort(g)
	for _, e := range tb.RAN.All() {
		if _, ok := e.Reservation(p); !ok {
			t.Fatalf("stale double-abort released the recycled PLMN on %s", e.Name())
		}
	}
	tb.Ctrl.RAN.Abort(g2)
}

// TestWrapDemandOverlay proves the chaos demand hook: wrapping a live
// slice's demand changes what the next epoch samples.
func TestWrapDemandOverlay(t *testing.T) {
	o, _, s := auditEnv(t, Config{})
	sl, err := o.Submit(req("wrap", 20, 50, time.Hour, 50), traffic.NewConstant(5, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := o.WrapDemand(sl.ID(), func(d traffic.Demand) traffic.Demand {
		return traffic.NewConstant(17, 0, nil)
	}); err != nil {
		t.Fatal(err)
	}
	o.RunEpoch()
	if got := sl.Snapshot().Accounting.DemandMbps; got != 17 {
		t.Fatalf("sampled demand %v after wrap, want 17", got)
	}
	if err := o.WrapDemand("no-such-slice", func(d traffic.Demand) traffic.Demand { return d }); err == nil {
		t.Fatal("WrapDemand on unknown slice did not error")
	}
	if err := o.Auditor().Err(); err != nil {
		t.Fatal(err)
	}
}

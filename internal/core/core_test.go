package core

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

// env builds a simulator + testbed + orchestrator triple.
func env(t *testing.T, cfg Config) (*sim.Simulator, *Orchestrator) {
	t.Helper()
	s := sim.NewSimulator(1)
	tb, err := testbed.New(testbed.Default(), s.Rand())
	if err != nil {
		t.Fatal(err)
	}
	o := New(cfg, tb, s, monitor.NewStore(512))
	return s, o
}

func req(tenant string, mbps, latencyMs float64, dur time.Duration, price float64) slice.Request {
	return slice.Request{
		Tenant: tenant,
		SLA: slice.SLA{
			ThroughputMbps: mbps,
			MaxLatencyMs:   latencyMs,
			Duration:       dur,
			PriceEUR:       price,
			PenaltyEUR:     2,
		},
	}
}

func TestSubmitInstallActivateExpire(t *testing.T) {
	s, o := env(t, Config{})
	sl, err := o.Submit(req("t1", 30, 50, time.Hour, 100), traffic.NewConstant(15, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := sl.State(); got != slice.StateInstalling {
		t.Fatalf("state after submit %v", got)
	}
	// Install stages take radio 0.5s + paths 0.2s + stack 2s + boot 5s.
	s.RunFor(10 * time.Second)
	if got := sl.State(); got != slice.StateActive {
		t.Fatalf("state after install window %v", got)
	}
	tl, ok := o.Timeline(sl.ID())
	if !ok {
		t.Fatal("no timeline")
	}
	if !tl.RadioDone.Before(tl.PathsDone) || !tl.PathsDone.Before(tl.StackDone) || !tl.StackDone.Before(tl.Active) {
		t.Fatalf("timeline out of order: %+v", tl)
	}
	if tot := tl.Active.Sub(tl.Submitted); tot < 7*time.Second || tot > 9*time.Second {
		t.Fatalf("install total %v, want ~7.7s", tot)
	}
	// Runs to expiry.
	s.RunFor(time.Hour)
	if got := sl.State(); got != slice.StateTerminated {
		t.Fatalf("state after expiry %v", got)
	}
	if sl.Reason() != "expired" {
		t.Fatalf("reason %q", sl.Reason())
	}
	// All resources released.
	if got := o.tb.Ctrl.RAN.Utilization(); got != 0 {
		t.Fatalf("RAN util %.3f after expiry", got)
	}
	if got := o.tb.Ctrl.Cloud.Utilization(); got != 0 {
		t.Fatalf("cloud util %.3f after expiry", got)
	}
}

func TestRejectInvalidRequest(t *testing.T) {
	_, o := env(t, Config{})
	if _, err := o.Submit(slice.Request{}, nil); err == nil {
		t.Fatal("invalid request accepted")
	}
}

func TestRejectLatencyUnmeetable(t *testing.T) {
	_, o := env(t, Config{})
	sl, err := o.Submit(req("t1", 10, 0.1, time.Hour, 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sl.State() != slice.StateRejected {
		t.Fatalf("state %v", sl.State())
	}
	if !strings.Contains(sl.Reason(), "latency") {
		t.Fatalf("reason %q", sl.Reason())
	}
}

func TestRejectRadioCapacityPeakProvisioning(t *testing.T) {
	_, o := env(t, Config{}) // no overbooking
	// Capacity ~103 Mbps at CQI 12; two 60 Mbps slices exceed it.
	a, _ := o.Submit(req("a", 60, 50, time.Hour, 100), nil)
	if a.State() != slice.StateInstalling {
		t.Fatalf("first slice %v: %s", a.State(), a.Reason())
	}
	b, _ := o.Submit(req("b", 60, 50, time.Hour, 100), nil)
	if b.State() != slice.StateRejected {
		t.Fatalf("second slice %v", b.State())
	}
	if !strings.Contains(b.Reason(), "radio") {
		t.Fatalf("reason %q", b.Reason())
	}
}

func TestOverbookingAdmitsMore(t *testing.T) {
	countAdmitted := func(cfg Config) int {
		_, o := env(t, cfg)
		n := 0
		for i := 0; i < 6; i++ {
			sl, err := o.Submit(req("t", 40, 50, time.Hour, 100), traffic.NewConstant(10, 0, nil))
			if err != nil {
				t.Fatal(err)
			}
			if sl.State() != slice.StateRejected {
				n++
			}
		}
		return n
	}
	peak := countAdmitted(Config{})
	over := countAdmitted(Config{Overbook: true, Risk: 0.9, AdmissionLoadFactor: 0.5})
	if over <= peak {
		t.Fatalf("overbooking admitted %d, peak %d — no gain", over, peak)
	}
}

func TestPLMNExhaustionRejects(t *testing.T) {
	_, o := env(t, Config{Overbook: true, AdmissionLoadFactor: 0.1, PLMNLimit: 2})
	var last *slice.Slice
	for i := 0; i < 3; i++ {
		last, _ = o.Submit(req("t", 5, 50, time.Hour, 10), nil)
	}
	if last.State() != slice.StateRejected || !strings.Contains(last.Reason(), "PLMN") {
		t.Fatalf("state %v reason %q", last.State(), last.Reason())
	}
}

func TestEdgeComputeForcedPlacement(t *testing.T) {
	s, o := env(t, Config{})
	r := req("edge-tenant", 20, 50, time.Hour, 50)
	r.SLA.EdgeCompute = true
	sl, _ := o.Submit(r, nil)
	s.RunFor(10 * time.Second)
	if got := sl.Allocation().DataCenter; got != testbed.EdgeDC {
		t.Fatalf("placed in %q, want edge", got)
	}
}

func TestTightLatencyForcesEdge(t *testing.T) {
	s, o := env(t, Config{})
	// Core path is >6 ms; a 4 ms budget fits only via the edge.
	sl, _ := o.Submit(req("urllc", 20, 4, time.Hour, 50), nil)
	s.RunFor(10 * time.Second)
	if sl.State() != slice.StateActive {
		t.Fatalf("state %v: %s", sl.State(), sl.Reason())
	}
	if got := sl.Allocation().DataCenter; got != testbed.EdgeDC {
		t.Fatalf("placed in %q, want edge", got)
	}
}

func TestRelaxedLatencyPrefersCore(t *testing.T) {
	s, o := env(t, Config{})
	sl, _ := o.Submit(req("embb", 20, 100, time.Hour, 50), nil)
	s.RunFor(10 * time.Second)
	if got := sl.Allocation().DataCenter; got != testbed.CoreDC {
		t.Fatalf("placed in %q, want core", got)
	}
}

func TestDeleteReleasesEverything(t *testing.T) {
	s, o := env(t, Config{})
	sl, _ := o.Submit(req("t", 30, 50, time.Hour, 100), nil)
	s.RunFor(10 * time.Second)
	if err := o.Delete(sl.ID()); err != nil {
		t.Fatal(err)
	}
	if sl.State() != slice.StateTerminated {
		t.Fatalf("state %v", sl.State())
	}
	if o.tb.Ctrl.RAN.Utilization() != 0 || o.tb.Ctrl.Cloud.Utilization() != 0 {
		t.Fatal("delete leaked resources")
	}
	if err := o.Delete(sl.ID()); err == nil {
		t.Fatal("double delete accepted")
	}
	if err := o.Delete("ghost"); err == nil {
		t.Fatal("unknown delete accepted")
	}
	// Expiry timer must not fire afterwards.
	s.RunFor(2 * time.Hour)
}

func TestEpochChargesViolationsWhenSqueezedTooHard(t *testing.T) {
	s, o := env(t, Config{
		Overbook:        true,
		Risk:            0.5, // no safety margin: provision = forecast
		ShareUnusedPRBs: false,
		Epoch:           time.Minute,
	})
	o.Start()
	// Bursty demand around a low mean with spikes the forecast misses.
	rng := s.Rand()
	sl, _ := o.Submit(req("bursty", 60, 50, 3*time.Hour, 100), traffic.NewBursty(5, 55, 0.05, 0.3, 0, rng))
	s.RunFor(2 * time.Hour)
	acct := sl.Accounting()
	if acct.ServedEpochs == 0 {
		t.Fatal("no epochs served")
	}
	if acct.ViolationEpochs == 0 {
		t.Fatal("aggressive overbooking with bursts should cause violations")
	}
	if acct.PenaltyEUR != float64(acct.ViolationEpochs)*2 {
		t.Fatalf("penalty %.1f for %d violations", acct.PenaltyEUR, acct.ViolationEpochs)
	}
	g := o.Gain()
	if g.PenaltyTotalEUR != acct.PenaltyEUR {
		t.Fatalf("orchestrator penalty %.1f vs slice %.1f", g.PenaltyTotalEUR, acct.PenaltyEUR)
	}
}

func TestPeakProvisioningNeverViolates(t *testing.T) {
	s, o := env(t, Config{ShareUnusedPRBs: false})
	o.Start()
	rng := s.Rand()
	sl, _ := o.Submit(req("t", 60, 50, 3*time.Hour, 100), traffic.NewBursty(5, 55, 0.05, 0.3, 0, rng))
	s.RunFor(2 * time.Hour)
	acct := sl.Accounting()
	if acct.ViolationEpochs != 0 {
		t.Fatalf("peak provisioning violated %d epochs", acct.ViolationEpochs)
	}
	if acct.ServedEpochs == 0 {
		t.Fatal("no epochs served")
	}
}

func TestOverbookingShrinksAllocation(t *testing.T) {
	s, o := env(t, Config{Overbook: true, Risk: 0.9})
	o.Start()
	sl, _ := o.Submit(req("t", 60, 50, 3*time.Hour, 100), traffic.NewConstant(12, 0.5, s.Rand()))
	s.RunFor(30 * time.Minute)
	alloc := sl.Allocation().AllocatedMbps
	if alloc >= 60 {
		t.Fatalf("allocation %.1f not shrunk below contract 60", alloc)
	}
	if alloc < 12 {
		t.Fatalf("allocation %.1f below steady demand", alloc)
	}
	g := o.Gain()
	if g.MultiplexingGain <= 1.0 {
		t.Fatalf("multiplexing gain %.2f not above 1", g.MultiplexingGain)
	}
	if g.Reconfigurations == 0 {
		t.Fatal("no reconfigurations recorded")
	}
}

func TestPeakProvisioningKeepsFullAllocation(t *testing.T) {
	s, o := env(t, Config{})
	o.Start()
	sl, _ := o.Submit(req("t", 60, 50, 2*time.Hour, 100), traffic.NewConstant(12, 0.5, s.Rand()))
	s.RunFor(30 * time.Minute)
	if alloc := sl.Allocation().AllocatedMbps; alloc < 60 {
		t.Fatalf("peak allocation %.1f dropped below contract", alloc)
	}
	if g := o.Gain(); g.MultiplexingGain > 1.001 {
		t.Fatalf("gain %.3f without overbooking", g.MultiplexingGain)
	}
}

func TestSqueezeToAccommodateNewcomer(t *testing.T) {
	s, o := env(t, Config{Overbook: true, Risk: 0.9, AdmissionLoadFactor: 0.4})
	o.Start()
	// First tenant contracts most of the capacity but uses little.
	a, _ := o.Submit(req("incumbent", 80, 50, 3*time.Hour, 100), traffic.NewConstant(15, 0, nil))
	s.RunFor(20 * time.Minute) // allocation shrinks toward ~15
	// Newcomer wants 40 Mbps peak; physically free capacity would be
	// ~103-80 = 23 if the incumbent kept its full contract.
	b, _ := o.Submit(req("newcomer", 40, 50, time.Hour, 80), traffic.NewConstant(10, 0, nil))
	if b.State() == slice.StateRejected {
		t.Fatalf("newcomer rejected: %s", b.Reason())
	}
	s.RunFor(10 * time.Second)
	if b.State() != slice.StateActive {
		t.Fatalf("newcomer %v", b.State())
	}
	_ = a
	if g := o.Gain(); g.OverbookingRatio <= 1.0 {
		t.Fatalf("overbooking ratio %.2f not above 1 (contracted %.0f, capacity %.0f)",
			g.OverbookingRatio, g.ContractedMbps, g.CapacityMbps)
	}
}

func TestRecordDemandLiveMode(t *testing.T) {
	s, o := env(t, Config{})
	o.Start()
	sl, _ := o.Submit(req("live", 30, 50, time.Hour, 50), nil) // no demand process
	s.RunFor(10 * time.Second)
	if err := o.RecordDemand(sl.ID(), 17); err != nil {
		t.Fatal(err)
	}
	s.RunFor(2 * time.Minute)
	acct := sl.Accounting()
	if acct.DemandMbps != 17 {
		t.Fatalf("demand %v", acct.DemandMbps)
	}
	if err := o.RecordDemand("ghost", 1); err == nil {
		t.Fatal("unknown slice demand accepted")
	}
	// A sample that is not a throughput is refused and recorded nowhere.
	for _, bad := range []float64{-5, 1e300, math.Nextafter(slice.MaxThroughputMbps, math.Inf(1)), math.Inf(1), math.NaN()} {
		if err := o.RecordDemand(sl.ID(), bad); !errors.Is(err, ErrBadDemand) {
			t.Fatalf("sample %v: %v, want ErrBadDemand", bad, err)
		}
	}
	if m := o.shardFor(sl.ID()).slices[sl.ID()]; m.lastDemand != 17 || !m.haveDemand {
		t.Fatalf("refused samples moved the slice's demand to %v (have %v)", m.lastDemand, m.haveDemand)
	}
}

func TestListAndGet(t *testing.T) {
	s, o := env(t, Config{})
	a, _ := o.Submit(req("a", 10, 50, time.Hour, 10), nil)
	b, _ := o.Submit(req("b", 10, 50, time.Hour, 10), nil)
	s.RunFor(10 * time.Second)
	ls := o.List()
	if len(ls) != 2 || ls[0].ID != a.ID() || ls[1].ID != b.ID() {
		t.Fatalf("list %+v", ls)
	}
	if _, ok := o.Get(a.ID()); !ok {
		t.Fatal("Get failed")
	}
	if _, ok := o.Get("nope"); ok {
		t.Fatal("ghost found")
	}
	if o.ActiveCount() != 2 {
		t.Fatalf("active %d", o.ActiveCount())
	}
}

func TestGainCounters(t *testing.T) {
	s, o := env(t, Config{})
	o.Submit(req("a", 60, 50, time.Hour, 100), nil)
	o.Submit(req("b", 60, 50, time.Hour, 100), nil) // rejected (radio)
	s.RunFor(10 * time.Second)
	g := o.Gain()
	if g.Admitted != 1 || g.Rejected != 1 {
		t.Fatalf("admitted %d rejected %d", g.Admitted, g.Rejected)
	}
	if g.RevenueTotalEUR != 100 {
		t.Fatalf("revenue %.1f", g.RevenueTotalEUR)
	}
	if g.RejectReasons["radio-capacity"] != 1 {
		t.Fatalf("reasons %v", g.RejectReasons)
	}
	if g.ContractedMbps != 60 {
		t.Fatalf("contracted %.1f", g.ContractedMbps)
	}
}

func TestStartStopIdempotent(t *testing.T) {
	s, o := env(t, Config{Epoch: time.Minute})
	o.Start()
	o.Start()
	s.RunFor(5 * time.Minute)
	if g := o.Gain(); g.Epochs != 5 {
		t.Fatalf("epochs %d after double Start", g.Epochs)
	}
	o.Stop()
	o.Stop()
	s.RunFor(5 * time.Minute)
	if g := o.Gain(); g.Epochs != 5 {
		t.Fatalf("epochs %d after Stop", g.Epochs)
	}
}

func TestTelemetrySeriesPopulated(t *testing.T) {
	s, o := env(t, Config{Overbook: true})
	o.Start()
	o.Submit(req("t", 30, 50, time.Hour, 50), traffic.NewConstant(10, 0, nil))
	s.RunFor(20 * time.Minute)
	snap := o.Store().Snapshot()
	for _, key := range []string{
		"orchestrator/multiplexing_gain",
		"orchestrator/overbooking_ratio",
		"orchestrator/active_slices",
		"domain/ran/utilization",
		"slice/s-1/demand_mbps",
		"slice/s-1/allocated_mbps",
	} {
		if _, ok := snap[key]; !ok {
			t.Fatalf("series %s missing (have %v)", key, o.Store().Names())
		}
	}
}

package core

import (
	"testing"
	"time"

	"repro/internal/slice"
	"repro/internal/traffic"
)

// rampDemand rises linearly from lo to hi over rampDur, then holds.
type rampDemand struct {
	lo, hi  float64
	start   time.Time
	rampDur time.Duration
}

func (r *rampDemand) Sample(t time.Time) float64 {
	frac := float64(t.Sub(r.start)) / float64(r.rampDur)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return r.lo + frac*(r.hi-r.lo)
}
func (r *rampDemand) Mean() float64 { return (r.lo + r.hi) / 2 }
func (r *rampDemand) Name() string  { return "ramp" }

func TestAllocationGrowsBackWithDemand(t *testing.T) {
	s, o := env(t, Config{Overbook: true, Risk: 0.9})
	o.Start()
	demand := &rampDemand{lo: 5, hi: 55, start: s.Now().Add(time.Hour), rampDur: 2 * time.Hour}
	sl, _ := o.Submit(req("ramp", 60, 50, 6*time.Hour, 200), demand)

	// Phase 1: low demand — allocation shrinks well below contract.
	s.RunFor(time.Hour)
	low := sl.Allocation().AllocatedMbps
	if low >= 30 {
		t.Fatalf("low-phase allocation %.1f did not shrink", low)
	}
	// Phase 2: demand ramps to near contract — allocation must follow up.
	s.RunFor(3 * time.Hour)
	high := sl.Allocation().AllocatedMbps
	if high <= low+10 {
		t.Fatalf("allocation did not grow back: low %.1f, high %.1f", low, high)
	}
	if high < 50 {
		t.Fatalf("high-phase allocation %.1f below ramped demand 55", high)
	}
}

func TestFloorEnforcedAtZeroDemand(t *testing.T) {
	s, o := env(t, Config{Overbook: true, Risk: 0.5})
	o.Start()
	sl, _ := o.Submit(req("idle", 40, 50, 3*time.Hour, 100), traffic.NewConstant(0, 0, nil))
	s.RunFor(time.Hour)
	if got := sl.Allocation().AllocatedMbps; got < floorMbps {
		t.Fatalf("allocation %.2f below floor", got)
	}
}

func TestEpochWithNoActiveSlices(t *testing.T) {
	s, o := env(t, Config{})
	o.Start()
	s.RunFor(10 * time.Minute)
	g := o.Gain()
	if g.Epochs != 10 {
		t.Fatalf("epochs %d", g.Epochs)
	}
	if _, ok := o.Store().Snapshot()["domain/ran/utilization"]; !ok {
		t.Fatal("telemetry missing on idle system")
	}
}

func TestNoViolationsChargedDuringInstall(t *testing.T) {
	s, o := env(t, Config{Overbook: true, Risk: 0.5, Epoch: time.Second})
	o.Start()
	// Huge demand attached, but the slice spends ~8s installing; during
	// that window epochs must not account it.
	sl, _ := o.Submit(req("installing", 30, 50, time.Hour, 100), traffic.NewConstant(1000, 0, nil))
	s.RunFor(5 * time.Second) // still installing
	if got := sl.Accounting().ServedEpochs; got != 0 {
		t.Fatalf("epochs charged during install: %d", got)
	}
	if sl.State() != slice.StateInstalling {
		t.Fatalf("state %v", sl.State())
	}
}

func TestReconfigHysteresisSuppressesSmallMoves(t *testing.T) {
	s, o := env(t, Config{Overbook: true, Risk: 0.9, ReconfigThreshold: 0.5})
	o.Start()
	// Demand wobbles mildly around 20 — within the 50%-of-contract band
	// relative to the initial squeeze, so after the first shrink there
	// should be almost no further reconfigurations.
	sl, _ := o.Submit(req("stable", 40, 50, 4*time.Hour, 100), traffic.NewConstant(20, 0.5, s.Rand()))
	s.RunFor(3 * time.Hour)
	g := o.Gain()
	if g.Reconfigurations > 3 {
		t.Fatalf("wide hysteresis produced %d reconfigurations", g.Reconfigurations)
	}
	_ = sl
}

func TestGainReportConsistency(t *testing.T) {
	s, o := env(t, Config{Overbook: true, Risk: 0.9, PLMNLimit: 16})
	o.Start()
	for i := 0; i < 3; i++ {
		o.Submit(req("t", 25, 50, 2*time.Hour, 100), traffic.NewConstant(10, 0, nil))
	}
	s.RunFor(time.Hour)
	g := o.Gain()
	if g.ContractedMbps != 75 {
		t.Fatalf("contracted %.1f", g.ContractedMbps)
	}
	if g.MultiplexingGain <= 0 || g.OverbookingRatio <= 0 {
		t.Fatalf("gain %.2f ratio %.2f", g.MultiplexingGain, g.OverbookingRatio)
	}
	// Gain must equal contracted/allocated.
	want := g.ContractedMbps / g.AllocatedMbps
	if diff := g.MultiplexingGain - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("gain %.6f != contracted/allocated %.6f", g.MultiplexingGain, want)
	}
	// Net = revenue - penalties.
	if g.NetRevenueEUR != g.RevenueTotalEUR-g.PenaltyTotalEUR {
		t.Fatal("net revenue identity broken")
	}
}

func TestEpochSnapshotPublished(t *testing.T) {
	s, o := env(t, Config{Overbook: true, Risk: 0.9})
	if _, ok := o.LastEpoch(); ok {
		t.Fatal("epoch snapshot published before any epoch ran")
	}
	o.Start()
	o.Submit(req("t", 30, 50, 2*time.Hour, 50), traffic.NewConstant(10, 0, nil))
	s.RunFor(20 * time.Minute)
	snap, ok := o.LastEpoch()
	if !ok {
		t.Fatal("no epoch snapshot after 20 epochs")
	}
	if snap.Epoch != 20 {
		t.Fatalf("snapshot epoch %d, want 20", snap.Epoch)
	}
	if snap.MeasuredSlices != 1 {
		t.Fatalf("measured %d slices, want 1", snap.MeasuredSlices)
	}
	if snap.RANUtilization <= 0 {
		t.Fatalf("RAN utilization %.3f, want > 0 under load", snap.RANUtilization)
	}
	// Nothing moved since the epoch, so the snapshot must agree with the
	// live report — the documented staleness bound is "at most one epoch".
	g := o.Gain()
	if snap.Gain.Admitted != g.Admitted || snap.Gain.Active != g.Active || snap.Gain.Epochs != g.Epochs {
		t.Fatalf("snapshot gain %+v diverged from live %+v on a quiet system", snap.Gain, g)
	}
	// The snapshot is immutable: mutating the returned histogram must not
	// leak into the published copy.
	snap.Gain.RejectReasons["tampered"] = 1
	again, _ := o.LastEpoch()
	if _, ok := again.Gain.RejectReasons["tampered"]; ok {
		t.Fatal("snapshot histogram aliased between readers")
	}
}

package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/testbed"
)

func kreq(mbps, price float64) KnapsackRequest {
	return KnapsackRequest{
		Req: slice.Request{
			Tenant: "t",
			SLA: slice.SLA{
				ThroughputMbps: mbps, MaxLatencyMs: 50,
				Duration: time.Hour, PriceEUR: price,
			},
		},
		LoadMbps: mbps,
	}
}

func TestKnapsackPicksOptimal(t *testing.T) {
	reqs := []KnapsackRequest{
		kreq(60, 60), // density 1.0
		kreq(50, 80), // density 1.6
		kreq(50, 75), // density 1.5
		kreq(10, 30), // density 3.0
	}
	// Capacity 110: optimal = {50/80, 50/75, 10/30} = 185.
	chosen, rev := MaxRevenueSubset(reqs, 110)
	if rev != 185 {
		t.Fatalf("optimal revenue %.1f, want 185 (chosen %v)", rev, chosen)
	}
	if len(chosen) != 3 {
		t.Fatalf("chosen %v", chosen)
	}
	// Greedy by arrival admits 60/60 then 50/80 = 140 and is stuck.
	_, greedy := GreedyRevenueSubset(reqs, 110)
	if greedy != 140 {
		t.Fatalf("greedy revenue %.1f, want 140", greedy)
	}
	// Density-ordered gets 30+80+75 = 185 here.
	_, dens := DensityOrderedSubset(reqs, 110)
	if dens != 185 {
		t.Fatalf("density revenue %.1f", dens)
	}
}

func TestKnapsackEdgeCases(t *testing.T) {
	if c, r := MaxRevenueSubset(nil, 100); c != nil || r != 0 {
		t.Fatal("empty request set")
	}
	if c, r := MaxRevenueSubset([]KnapsackRequest{kreq(10, 5)}, 0); c != nil || r != 0 {
		t.Fatal("zero capacity")
	}
	// Single request exactly at capacity.
	c, r := MaxRevenueSubset([]KnapsackRequest{kreq(100, 7)}, 100)
	if len(c) != 1 || r != 7 {
		t.Fatalf("exact fit: %v %.1f", c, r)
	}
	// Request bigger than capacity.
	c, r = MaxRevenueSubset([]KnapsackRequest{kreq(200, 7)}, 100)
	if len(c) != 0 || r != 0 {
		t.Fatalf("oversize: %v %.1f", c, r)
	}
}

func TestChosenIndicesAscendingAndFeasible(t *testing.T) {
	reqs := []KnapsackRequest{kreq(30, 10), kreq(30, 20), kreq(30, 30), kreq(30, 40)}
	chosen, _ := MaxRevenueSubset(reqs, 90)
	if len(chosen) != 3 {
		t.Fatalf("chosen %v", chosen)
	}
	load := 0.0
	for i := 1; i < len(chosen); i++ {
		if chosen[i] <= chosen[i-1] {
			t.Fatalf("indices not ascending: %v", chosen)
		}
	}
	for _, i := range chosen {
		load += reqs[i].LoadMbps
	}
	if load > 90 {
		t.Fatalf("infeasible load %.1f", load)
	}
}

// bruteForce enumerates all subsets (for small n) to verify optimality.
func bruteForce(reqs []KnapsackRequest, capacity float64) float64 {
	best := 0.0
	n := len(reqs)
	for mask := 0; mask < 1<<n; mask++ {
		load, rev := 0.0, 0.0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				load += math.Ceil(reqs[i].LoadMbps)
				rev += reqs[i].Req.SLA.PriceEUR
			}
		}
		if load <= capacity && rev > best {
			best = rev
		}
	}
	return best
}

// Property: the DP matches brute force, and greedy/density never beat it.
func TestPropertyKnapsackOptimality(t *testing.T) {
	f := func(sizes [6]uint8, prices [6]uint8, capRaw uint8) bool {
		capacity := float64(capRaw%120) + 1
		var reqs []KnapsackRequest
		for i := 0; i < 6; i++ {
			mbps := float64(sizes[i]%40) + 1
			price := float64(prices[i] % 100)
			reqs = append(reqs, kreq(mbps, price))
		}
		_, opt := MaxRevenueSubset(reqs, capacity)
		want := bruteForce(reqs, math.Floor(capacity))
		if math.Abs(opt-want) > 1e-9 {
			return false
		}
		_, g := GreedyRevenueSubset(reqs, capacity)
		_, d := DensityOrderedSubset(reqs, capacity)
		return g <= opt+1e-9 && d <= opt+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestRejectionCauseTaxonomy drives real rejections end-to-end and checks
// that each surfaces its stable typed code (the histogram bucket) and is
// errors.Is-compatible against the RejectCode sentinels.
func TestRejectionCauseTaxonomy(t *testing.T) {
	s := sim.NewSimulator(1)
	tb, err := testbed.New(testbed.Default(), s.Rand())
	if err != nil {
		t.Fatal(err)
	}
	o := New(Config{Overbook: true, PenaltyAware: true}, tb, s, monitor.NewStore(64))

	// Revenue policy: the expected penalties at the default risk eat the price.
	sl, err := o.Submit(req("cheap", 20, 50, time.Hour, 0.01), nil)
	if err != nil {
		t.Fatal(err)
	}
	cause, ok := sl.Cause()
	if !ok || cause.Code != slice.RejectRevenuePolicy {
		t.Fatalf("cause %+v, ok %v", cause, ok)
	}
	if !errors.Is(&cause, slice.RejectRevenuePolicy) {
		t.Fatalf("errors.Is(%v, RejectRevenuePolicy) = false", cause)
	}
	if errors.Is(&cause, slice.RejectRadioCapacity) {
		t.Fatalf("cause %v matched the wrong code", cause)
	}
	if sl.Snapshot().RejectCode != slice.RejectRevenuePolicy {
		t.Fatalf("snapshot code %q", sl.Snapshot().RejectCode)
	}

	// Latency unmeetable.
	o2 := New(Config{}, tb, s, monitor.NewStore(64))
	sl2, err := o2.Submit(req("urllc", 20, 0.01, time.Hour, 100), nil)
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := sl2.Cause(); c.Code != slice.RejectLatencyUnmeetable {
		t.Fatalf("latency cause %+v", c)
	}
	if g := o2.Gain(); g.RejectReasons[string(slice.RejectLatencyUnmeetable)] != 1 {
		t.Fatalf("histogram %v not keyed on typed codes", g.RejectReasons)
	}
}

package scenario

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/monitor"
)

// TestFixedSeedScenarioGolden pins an overloaded fixed-seed run to golden
// outcome numbers recorded on the pre-refactor (hand-rolled three-domain
// install) engine. The generic domain-transaction engine must reproduce
// them byte-for-byte: the refactor — like the shard count — changes
// contention and structure, never outcomes. If this test fails after an
// intentional behavior change, re-record the constants in the same commit
// and say why.
func TestFixedSeedScenarioGolden(t *testing.T) {
	res, err := Run(Options{
		Seed:             42,
		Duration:         8 * time.Hour,
		MeanInterarrival: 5 * time.Minute,
		Orchestrator:     core.Config{Overbook: true, Risk: 0.9, PLMNLimit: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Gain
	intChecks := map[string][2]int{
		"offered":          {res.Offered, 104},
		"admitted":         {g.Admitted, 22},
		"rejected":         {g.Rejected, 82},
		"active":           {g.Active, 6},
		"violation_epochs": {g.ViolationEpochs, 401},
		"reconfigurations": {g.Reconfigurations, 200},
		"epochs":           {g.Epochs, 480},
		"served_epochs":    {res.ServedEpochs, 2727},
		"attached_ues":     {res.AttachedUEs, 66},
		"plmn-exhausted":   {g.RejectReasons["plmn-exhausted"], 65},
		"radio-capacity":   {g.RejectReasons["radio-capacity"], 17},
	}
	for name, c := range intChecks {
		if c[0] != c[1] {
			t.Errorf("%s = %d, want golden %d", name, c[0], c[1])
		}
	}
	if n := len(g.RejectReasons); n != 2 {
		t.Errorf("histogram has %d buckets %v, want the 2 golden typed codes", n, g.RejectReasons)
	}
	floatChecks := map[string][2]float64{
		"revenue_eur": {g.RevenueTotalEUR, 1978.3629373013005},
		"penalty_eur": {g.PenaltyTotalEUR, 1060},
		"net_eur":     {g.NetRevenueEUR, 918.3629373013005},
	}
	for name, c := range floatChecks {
		if math.Abs(c[0]-c[1]) > 1e-6 {
			t.Errorf("%s = %.10f, want golden %.10f", name, c[0], c[1])
		}
	}
}

// TestEpochPipelineShardEquivalence is the equivalence proof for the
// phase-pipelined epoch engine: a fixed-seed scenario run with Shards=1 and
// with Shards=16 must publish the identical event stream — every event, in
// the same sequence — and produce identical slice outcomes, identical
// telemetry series — every sample of every series, bit for bit — and an
// identical GainReport. Shard count changes contention only, never outcomes:
// every epoch phase walks the slices in submission order whatever shard
// holds them, so RNG draws, violation charges and announcements, and domain
// resizes happen in one order, and the books are integers whose additions
// commute.
func TestEpochPipelineShardEquivalence(t *testing.T) {
	type outcome struct {
		res    Result
		series map[string][]monitor.Sample
		events []core.Event
	}
	run := func(shards int) outcome {
		r, err := NewRunner(Options{
			Seed:             42,
			Duration:         3 * time.Hour,
			MeanInterarrival: 5 * time.Minute,
			Orchestrator: core.Config{
				Overbook: true, Risk: 0.9, PLMNLimit: 64, Shards: shards,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		var events []core.Event
		r.Orch.Events().SetTap(func(ev core.Event) { events = append(events, ev) })
		r.StartArrivals()
		if err := r.Sim.RunFor(3 * time.Hour); err != nil {
			t.Fatal(err)
		}
		out := outcome{res: r.Collect(), series: map[string][]monitor.Sample{}, events: events}
		store := r.Orch.Store()
		for _, name := range store.Names() {
			out.series[name] = store.Series(name).Window(0)
		}
		return out
	}
	serial, pipelined := run(1), run(16)

	violations := 0
	for _, ev := range serial.events {
		if ev.Type == core.EventViolation {
			violations++
		}
	}
	if violations == 0 {
		t.Fatalf("the %d-event stream holds no violation; the test would not see their order", len(serial.events))
	}
	t.Logf("%d events, %d violations", len(serial.events), violations)
	if !reflect.DeepEqual(serial.events, pipelined.events) {
		t.Errorf("event streams diverged (%d vs %d events)", len(serial.events), len(pipelined.events))
	}
	if !reflect.DeepEqual(serial.res.Gain, pipelined.res.Gain) {
		t.Errorf("gain report diverged:\n serial:    %+v\n pipelined: %+v", serial.res.Gain, pipelined.res.Gain)
	}
	if !reflect.DeepEqual(serial.res.Slices, pipelined.res.Slices) {
		t.Errorf("slice outcomes diverged (%d vs %d snapshots)", len(serial.res.Slices), len(pipelined.res.Slices))
	}
	if serial.res.Offered != pipelined.res.Offered || serial.res.AttachedUEs != pipelined.res.AttachedUEs {
		t.Errorf("workload diverged: offered %d/%d, attached %d/%d",
			serial.res.Offered, pipelined.res.Offered, serial.res.AttachedUEs, pipelined.res.AttachedUEs)
	}
	if len(serial.series) != len(pipelined.series) {
		t.Fatalf("series sets diverged: %d vs %d", len(serial.series), len(pipelined.series))
	}
	for name, want := range serial.series {
		got, ok := pipelined.series[name]
		if !ok {
			t.Errorf("series %q missing from the pipelined run", name)
			continue
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("series %q diverged (%d vs %d samples)", name, len(want), len(got))
		}
	}
}

package core

// The three admission entry points — Submit (admit), DryRun and SubmitFast —
// share one policy prelude (admissionPolicy) and must agree on every request:
// a seeded property test over random requests × configurations. Every third
// case fades one cell after the standing load is in — the one event that
// changes the radio capacity under a running orchestrator — and all three
// must decide against the capacity as it is now, which every reader of it
// must report to the bit.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/testbed"
)

func TestAdmissionCallersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pick := func(xs ...float64) float64 { return xs[rng.Intn(len(xs))] }

	// replica builds one orchestrator of a scenario; two calls with the same
	// arguments give identical replicas (same seed, same preload).
	replica := func(cfg Config, maxPLMNs, preload int, saturate, fade bool) *Orchestrator {
		s := sim.NewSimulator(7)
		tb, err := testbed.New(testbed.Config{ENBs: 2, MaxPLMNs: maxPLMNs, CoreHosts: 8, EdgeHosts: 4}, s.Rand())
		if err != nil {
			t.Fatal(err)
		}
		o := New(cfg, tb, s, monitor.NewStore(64))
		load := slice.Request{Tenant: "standing", SLA: slice.SLA{
			ThroughputMbps: 2, MaxLatencyMs: 50, Duration: time.Hour, PriceEUR: 1e4,
		}}
		if saturate {
			// One slice sized to the whole admission cap leaves no headroom.
			load.SLA.ThroughputMbps = tb.RadioCapacityMbps() * UtilizationCap / o.admissionEstimate(slice.SLA{ThroughputMbps: 1})
			preload = 1
		}
		for i := 0; i < preload; i++ {
			if sl, err := o.Submit(load, nil); err != nil || sl.State() == slice.StateRejected {
				t.Fatalf("preload %d: %v %s", i, err, sl.Reason())
			}
		}
		if fade {
			before := tb.RadioCapacityMbps()
			tb.Ctrl.RAN.Cells()[0].SetMeanCQI(9)
			if after := tb.RadioCapacityMbps(); after >= before {
				t.Fatalf("fade left the capacity at %v (was %v)", after, before)
			}
		}
		return o
	}

	seen := make(map[string]int) // by reject code; revenue-policy split by its two policies
	fastRejects := 0
	for i := 0; i < 400; i++ {
		cfg := Config{
			Overbook:            rng.Intn(4) > 0,
			Risk:                pick(0.5, 0.9, 0.99),
			AdmissionLoadFactor: 0.5,
			MinRevenueDensity:   pick(0, 0, 0.5),
			PenaltyAware:        rng.Intn(2) == 0,
			Shards:              4,
		}
		maxPLMNs, preload := 64, rng.Intn(3)
		if rng.Intn(5) == 0 { // PLMN list exhausted by the standing slices
			maxPLMNs, preload = 2, 2
		}
		cfg.PLMNLimit = maxPLMNs
		saturate := maxPLMNs == 64 && rng.Intn(5) == 0
		req := slice.Request{Tenant: fmt.Sprintf("t-%d", i), SLA: slice.SLA{
			ThroughputMbps: pick(1, 5, 30, 80),
			MaxLatencyMs:   pick(1e-9, 20, 50),
			Duration:       time.Duration(pick(10, 60, 24*60)) * time.Minute,
			PriceEUR:       pick(0.01, 1, 20, 500),
			PenaltyEUR:     pick(0, 1, 50),
			EdgeCompute:    rng.Intn(4) == 0,
		}}
		fade := i%3 == 2
		if fade {
			// A slice is split evenly over the cells and the radio dry run is
			// vacuous (per-cell fit surfaces at Reserve), so the three can only
			// agree on asks whose half the faded cell can still carry.
			req.SLA.ThroughputMbps = min(req.SLA.ThroughputMbps, 30)
		}
		desc := fmt.Sprintf("case %d: cfg %+v plmns %d preload %d saturate %v fade %v req %+v", i, cfg, maxPLMNs, preload, saturate, fade, req.SLA)

		probe, live := replica(cfg, maxPLMNs, preload, saturate, fade), replica(cfg, maxPLMNs, preload, saturate, fade)
		capacity := probe.tb.RadioCapacityMbps()
		if g := probe.Gain().CapacityMbps; math.Float64bits(g) != math.Float64bits(capacity) ||
			probe.admissionCap() != slice.ToKbps(capacity*UtilizationCap) {
			t.Fatalf("%s: capacity read three ways: gain %v, testbed %v, admission cap %v at utilization cap %v",
				desc, g, capacity, probe.admissionCap(), UtilizationCap)
		}
		rep, err := probe.DryRun(req)
		if err != nil {
			t.Fatalf("%s: dry-run: %v", desc, err)
		}
		fast := probe.SubmitFast(req)
		sl, err := live.Submit(req, nil)
		if err != nil {
			t.Fatalf("%s: submit: %v", desc, err)
		}
		cause, rejected := sl.Cause()
		outcome := string(cause.Code)
		if cause.Code == slice.RejectRevenuePolicy {
			outcome = "penalty-aware"
			if strings.HasPrefix(cause.Detail, "revenue density") {
				outcome = "density floor"
			}
		}
		seen[outcome]++

		if rep.Feasible == rejected {
			t.Fatalf("%s: dry-run feasible=%v, submit rejected=%v (%s)", desc, rep.Feasible, rejected, cause.Detail)
		}
		if rep.RejectCode != cause.Code || rep.Detail != cause.Detail {
			t.Fatalf("%s:\ndry-run %q %q\nsubmit  %q %q", desc, rep.RejectCode, rep.Detail, cause.Code, cause.Detail)
		}
		if fast != nil {
			fastRejects++
			if !rejected || fast.Code != cause.Code {
				t.Fatalf("%s: fast path rejects with %q, submit says rejected=%v %q", desc, fast.Code, rejected, cause.Code)
			}
			slice.RecycleRejection(fast)
		}
	}
	// The property must not hold vacuously: every prelude exit, the ledger,
	// a per-domain cause and plain admission all have to occur.
	for _, outcome := range []string{"", "density floor", "penalty-aware", string(slice.RejectPLMNExhausted),
		string(slice.RejectRadioCapacity), string(slice.RejectLatencyUnmeetable)} {
		if seen[outcome] == 0 {
			t.Errorf("no case ended in %q: %v", outcome, seen)
		}
	}
	if fastRejects == 0 {
		t.Error("the fast path never rejected")
	}
}

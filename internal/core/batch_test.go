package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/slice"
)

// batch builds a batch whose FCFS outcome is suboptimal: a big cheap slice
// first, then valuable smaller ones.
func suboptimalBatch() []BatchItem {
	mk := func(mbps, price float64) BatchItem {
		return BatchItem{Request: slice.Request{
			Tenant: "b",
			SLA: slice.SLA{
				ThroughputMbps: mbps, MaxLatencyMs: 50,
				Duration: time.Hour, PriceEUR: price, PenaltyEUR: 1,
			},
		}}
	}
	return []BatchItem{
		mk(60, 60), // arrives first, low density
		mk(40, 90), // high density
		mk(40, 85), // high density
		mk(10, 40), // highest density
	}
}

func TestSubmitBatchOptimalBeatsFCFS(t *testing.T) {
	revenueOf := func(policy BatchPolicy) float64 {
		_, o := env(t, Config{Overbook: true, AdmissionLoadFactor: 1.0})
		slices, err := o.SubmitBatch(suboptimalBatch(), policy)
		if err != nil {
			t.Fatal(err)
		}
		if len(slices) != 4 {
			t.Fatalf("got %d slices", len(slices))
		}
		return o.Gain().RevenueTotalEUR
	}
	// Capacity ~97.9 estimated: FCFS takes 60€ slice + one 40 = 60+90 = 150.
	fcfs := revenueOf(BatchFCFS)
	opt := revenueOf(BatchOptimal)
	dens := revenueOf(BatchDensity)
	if opt <= fcfs {
		t.Fatalf("optimal %v <= fcfs %v", opt, fcfs)
	}
	if dens < fcfs {
		t.Fatalf("density %v below fcfs %v", dens, fcfs)
	}
	if opt < dens {
		t.Fatalf("optimal %v below density %v", opt, dens)
	}
}

func TestSubmitBatchLosersRejectedWithReason(t *testing.T) {
	_, o := env(t, Config{Overbook: true, AdmissionLoadFactor: 1.0})
	slices, err := o.SubmitBatch(suboptimalBatch(), BatchOptimal)
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for _, sl := range slices {
		if sl.State() == slice.StateRejected {
			rejected++
			if !strings.Contains(sl.Reason(), "batch admission") {
				t.Fatalf("reason %q", sl.Reason())
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no batch losers at tight capacity")
	}
	g := o.Gain()
	if g.RejectReasons["revenue-policy"] != rejected {
		t.Fatalf("histogram %v vs %d", g.RejectReasons, rejected)
	}
	// Positional alignment preserved.
	if len(slices) != 4 {
		t.Fatal("alignment broken")
	}
}

func TestSubmitBatchInvalidItem(t *testing.T) {
	_, o := env(t, Config{})
	items := suboptimalBatch()
	items[1].Request.SLA.Duration = 0
	if _, err := o.SubmitBatch(items, BatchOptimal); err == nil {
		t.Fatal("invalid item accepted")
	}
}

func TestSubmitBatchOnFullSystemRejectsAll(t *testing.T) {
	_, o := env(t, Config{}) // peak provisioning
	// Fill capacity.
	o.Submit(req("big", 90, 50, time.Hour, 10), nil)
	slices, err := o.SubmitBatch(suboptimalBatch(), BatchOptimal)
	if err != nil {
		t.Fatal(err)
	}
	for _, sl := range slices {
		if sl.State() != slice.StateRejected {
			t.Fatalf("slice admitted on full system: %v", sl.State())
		}
	}
}

func TestBatchPolicyString(t *testing.T) {
	if BatchFCFS.String() != "fcfs" || BatchDensity.String() != "density" ||
		BatchOptimal.String() != "knapsack-optimal" {
		t.Fatal("policy names")
	}
	if BatchPolicy(9).String() != "BatchPolicy(9)" {
		t.Fatal("unknown policy")
	}
}

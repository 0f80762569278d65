package overbook

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNewSimulatedQuickstart(t *testing.T) {
	sys, err := NewSimulated(Options{Seed: 1, Orchestrator: &OrchestratorConfig{Overbook: true}})
	if err != nil {
		t.Fatal(err)
	}
	sys.Orchestrator.Start()
	sl, err := sys.Orchestrator.Submit(Request{
		Tenant: "acme",
		SLA: SLA{ThroughputMbps: 30, MaxLatencyMs: 20,
			Duration: time.Hour, PriceEUR: 100, PenaltyEUR: 2,
			Class: ClassEHealth},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.Sim.RunFor(time.Minute)
	if sl.State().String() != "active" {
		t.Fatalf("state %v (%s)", sl.State(), sl.Reason())
	}
	if g := sys.Orchestrator.Gain(); g.Admitted != 1 {
		t.Fatalf("gain %+v", g)
	}
}

func TestNewSimulatedCustomConfig(t *testing.T) {
	cfg := OrchestratorConfig{Overbook: true, Risk: 0.8, PLMNLimit: 10}
	sys, err := NewSimulated(Options{Seed: 2, Orchestrator: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Orchestrator.Config().Risk; got != 0.8 {
		t.Fatalf("risk %v", got)
	}
	if got := sys.Orchestrator.Config().PLMNLimit; got != 10 {
		t.Fatalf("plmn limit %v", got)
	}
}

func TestNewLiveRunsOnWallClock(t *testing.T) {
	sys, err := NewLive(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Sim != nil {
		t.Fatal("live system has a simulator")
	}
	sl, err := sys.Orchestrator.Submit(Request{
		Tenant: "live",
		SLA:    SLA{ThroughputMbps: 10, MaxLatencyMs: 50, Duration: time.Hour, PriceEUR: 10},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sl.State().String() != "installing" {
		t.Fatalf("state %v", sl.State())
	}
}

// TestConcurrentFacadeAdmitDelete drives parallel Submit/Delete across
// tenants through the public facade on a wall-clock System — the facade's
// concurrency contract (run with -race). Independent tenants hash to
// different shards and are admitted in parallel; the final counters must
// account every request exactly once and release every resource.
func TestConcurrentFacadeAdmitDelete(t *testing.T) {
	cfg := OrchestratorConfig{
		Overbook:            true,
		Risk:                0.9,
		AdmissionLoadFactor: 0.5,
		PLMNLimit:           512,
		Shards:              8,
	}
	sys, err := NewLive(Options{
		Orchestrator: &cfg,
		Testbed:      TestbedConfig{ENBs: 4, MaxPLMNs: 512, CoreHosts: 16, EdgeHosts: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	const tenants = 8
	const perTenant = 25
	var wg sync.WaitGroup
	for w := 0; w < tenants; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perTenant; i++ {
				sl, err := sys.Orchestrator.Submit(Request{
					Tenant: fmt.Sprintf("tenant-%d", w),
					SLA: SLA{ThroughputMbps: 2, MaxLatencyMs: 50,
						Duration: time.Hour, PriceEUR: 10, PenaltyEUR: 1},
				}, nil)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if sl.State().String() == "rejected" {
					continue
				}
				if err := sys.Orchestrator.Delete(sl.ID()); err != nil {
					t.Errorf("delete: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	g := sys.Orchestrator.Gain()
	if got := g.Admitted + g.Rejected; got != tenants*perTenant {
		t.Fatalf("admitted %d + rejected %d = %d, want %d", g.Admitted, g.Rejected, got, tenants*perTenant)
	}
	if u := sys.Testbed.Ctrl.RAN.Utilization(); u != 0 {
		t.Fatalf("RAN utilization %.4f after churn", u)
	}
	if u := sys.Testbed.Ctrl.Cloud.Utilization(); u != 0 {
		t.Fatalf("cloud utilization %.4f after churn", u)
	}
}

func TestTestbedOverride(t *testing.T) {
	sys, err := NewSimulated(Options{Seed: 1, Testbed: TestbedConfig{ENBs: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sys.Testbed.RAN.Names()); got != 4 {
		t.Fatalf("eNBs %d", got)
	}
}

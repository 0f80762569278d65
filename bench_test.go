// Benchmarks regenerating the performance side of every experiment in
// DESIGN.md §4. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark maps to one figure/claim: F1 BenchmarkOrchestrationCycle,
// F2 BenchmarkSliceInstallation, F3 BenchmarkParallelAdmission (the
// sharded-engine scaling claim), F4 BenchmarkWatchFanout (event publication
// stays off the admission hot path), D1 BenchmarkAdmissionControl (+ the
// knapsack solver), D2 BenchmarkGainTracking, D3 BenchmarkForecasters,
// D4 BenchmarkOverbookingSweep, D5 BenchmarkDomainUtilization,
// D6 BenchmarkEmbedding.
package overbook

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/intent"
	"repro/internal/monitor"
	"repro/internal/restapi"
	"repro/internal/scenario"
	"repro/internal/slice"
	"repro/internal/testbed"
	"repro/internal/traffic"
	"repro/internal/transport"
)

// benchReq builds a small admissible request.
func benchReq(i int) slice.Request {
	return slice.Request{
		Tenant: fmt.Sprintf("bench-%d", i),
		SLA: slice.SLA{
			ThroughputMbps: 20,
			MaxLatencyMs:   50,
			Duration:       time.Hour,
			PriceEUR:       50,
			PenaltyEUR:     1,
		},
	}
}

// BenchmarkOrchestrationCycle (F1) measures one pass of the Fig.-1 closed
// loop — collect, monitor, forecast, optimize, reconfigure — on systems
// loaded with an increasing number of active slices.
func BenchmarkOrchestrationCycle(b *testing.B) {
	for _, n := range []int{2, 6, 12, 24} {
		b.Run(fmt.Sprintf("slices=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			r, err := scenario.LoadedRunner(1, n)
			if err != nil {
				b.Fatal(err)
			}
			r.Orch.Stop() // drive epochs manually
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Orch.RunEpoch()
			}
		})
	}
}

// BenchmarkSliceInstallation (F2) measures the full multi-domain install +
// teardown of a slice: admission, PLMN, PRBs, paths, Heat stack, vEPC.
func BenchmarkSliceInstallation(b *testing.B) {
	b.ReportAllocs()
	sys, err := NewSimulated(Options{Seed: 1, Overbook: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sl, err := sys.Orchestrator.Submit(benchReq(i), nil)
		if err != nil {
			b.Fatal(err)
		}
		if sl.State() == slice.StateRejected {
			b.Fatalf("bench request rejected: %s", sl.Reason())
		}
		sys.Sim.RunFor(15 * time.Second) // install stages
		if err := sys.Orchestrator.Delete(sl.ID()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstallTransaction (F2) measures the generic domain-transaction
// engine on the same admit → multi-domain install → teardown cycle that
// BenchmarkSliceInstallation recorded on the seed's hand-rolled install, so
// the abstraction's overhead stays visible in the F2 trajectory. domains=3
// is the direct apples-to-apples comparison; domains=4 adds the pluggable
// MEC domain and prices one extra concurrent-group member.
func BenchmarkInstallTransaction(b *testing.B) {
	for _, mecHosts := range []int{0, 4} {
		name := "domains=3"
		if mecHosts > 0 {
			name = "domains=4"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			sys, err := NewSimulated(Options{
				Seed:     1,
				Overbook: true,
				Testbed:  TestbedConfig{MECHosts: mecHosts, MECHostCPUs: 64},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sl, err := sys.Orchestrator.Submit(benchReq(i), nil)
				if err != nil {
					b.Fatal(err)
				}
				if sl.State() == slice.StateRejected {
					b.Fatalf("bench request rejected: %s", sl.Reason())
				}
				sys.Sim.RunFor(15 * time.Second) // install stages
				if err := sys.Orchestrator.Delete(sl.ID()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelAdmission (F3) is the admit-heavy concurrent-admission
// benchmark of the sharded engine: every goroutine submits and immediately
// deletes small slices for its own tenant on a wall-clock System, so the
// full admit → multi-domain install → teardown cycle runs in parallel. The
// shards=1 case serializes the whole cycle (the pre-sharding engine); the
// 4- and 16-shard cases let independent tenants proceed concurrently, and
// ops/sec should scale with cores (DESIGN.md §4, claim F3: ≥2× at 16
// shards vs 1 on a multi-core runner). The reject-heavy counterpart is
// BenchmarkParallelAdmissionReject (the name here is kept stable so the
// BENCH_*.json trajectory stays comparable across PRs).
func BenchmarkParallelAdmission(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			cfg := core.Config{
				Overbook:            true,
				Risk:                0.9,
				AdmissionLoadFactor: 0.5,
				PLMNLimit:           4096,
				HistoryLimit:        256,
				Shards:              shards,
			}
			sys, err := NewLive(Options{
				Orchestrator: &cfg,
				Testbed: TestbedConfig{
					ENBs: 4, MaxPLMNs: 4096, CoreHosts: 32, EdgeHosts: 16,
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			var seq atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				tenant := fmt.Sprintf("bench-tenant-%d", seq.Add(1))
				for pb.Next() {
					sl, err := sys.Orchestrator.Submit(slice.Request{
						Tenant: tenant,
						SLA: slice.SLA{
							ThroughputMbps: 2,
							MaxLatencyMs:   50,
							Duration:       time.Hour,
							PriceEUR:       10,
							PenaltyEUR:     1,
						},
					}, nil)
					// b.Fatal must not be called from RunParallel workers;
					// b.Error + return stops this worker and fails the run.
					if err != nil {
						b.Error(err)
						return
					}
					if sl.State() == slice.StateRejected {
						b.Errorf("bench request rejected: %s", sl.Reason())
						return
					}
					if err := sys.Orchestrator.Delete(sl.ID()); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// saturatedSystem builds a peak-provisioned live system whose capacity
// ledger is filled to the brim, so every further request is a certain
// rejection — the fixture for the reject-heavy benchmarks and the
// zero-allocation fast-reject guard.
func saturatedSystem(tb testing.TB) *System {
	tb.Helper()
	cfg := core.Config{
		PLMNLimit:    4096,
		HistoryLimit: 256,
		Shards:       16,
	}
	sys, err := NewLive(Options{
		Orchestrator: &cfg,
		Testbed: TestbedConfig{
			ENBs: 4, MaxPLMNs: 4096, CoreHosts: 32, EdgeHosts: 16,
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	// Fill the ledger: keep admitting 100-Mbps slices until one bounces.
	for i := 0; ; i++ {
		if i > 10000 {
			tb.Fatal("saturation never reached")
		}
		req := benchReq(i)
		req.SLA.ThroughputMbps = 100
		sl, err := sys.Orchestrator.Submit(req, nil)
		if err != nil {
			tb.Fatal(err)
		}
		if sl.State() == slice.StateRejected {
			break
		}
	}
	return sys
}

// saturatedReq is a request a saturated system must certainly reject: its
// contract alone exceeds the whole testbed's headroom.
func saturatedReq() slice.Request {
	req := benchReq(0)
	req.SLA.ThroughputMbps = 1 << 20
	return req
}

// BenchmarkParallelAdmissionReject (F3) is the reject-heavy counterpart of
// BenchmarkParallelAdmission: an overload storm against a saturated system,
// answered by the SubmitFast zero-allocation fast-reject path. Steady state
// must report 0 allocs/op — every rejection cause comes from and returns to
// the pool, and the headroom/feasibility caches answer without touching the
// WAL, the event bus or the slice registry.
func BenchmarkParallelAdmissionReject(b *testing.B) {
	sys := saturatedSystem(b)
	req := saturatedReq()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			cause := sys.Orchestrator.SubmitFast(req)
			if cause == nil {
				b.Error("saturated system accepted a fast-path request")
				return
			}
			slice.RecycleRejection(cause)
		}
	})
}

// BenchmarkWatchFanout (F4) measures concurrent admission throughput while
// 1/64/1024 subscribers consume the lifecycle event stream — the proof
// that event publication stays off the sharded hot path: ops/sec at any
// subscriber count must track BenchmarkParallelAdmission/shards=16 (each
// admit+delete publishes three events; subscribers drain concurrently and
// the slowest merely resyncs, never stalling Submit).
func BenchmarkWatchFanout(b *testing.B) {
	for _, subs := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			b.ReportAllocs()
			cfg := core.Config{
				Overbook:            true,
				Risk:                0.9,
				AdmissionLoadFactor: 0.5,
				PLMNLimit:           4096,
				HistoryLimit:        256,
				Shards:              16,
			}
			sys, err := NewLive(Options{
				Orchestrator: &cfg,
				Testbed: TestbedConfig{
					ENBs: 4, MaxPLMNs: 4096, CoreHosts: 32, EdgeHosts: 16,
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			var consumed atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < subs; i++ {
				ch := sys.Orchestrator.Watch(ctx, WatchOptions{Buffer: 256})
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range ch {
						consumed.Add(1)
					}
				}()
			}
			var seq atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				tenant := fmt.Sprintf("bench-tenant-%d", seq.Add(1))
				for pb.Next() {
					sl, err := sys.Orchestrator.Submit(slice.Request{
						Tenant: tenant,
						SLA: slice.SLA{
							ThroughputMbps: 2,
							MaxLatencyMs:   50,
							Duration:       time.Hour,
							PriceEUR:       10,
							PenaltyEUR:     1,
						},
					}, nil)
					if err != nil {
						b.Error(err)
						return
					}
					if sl.State() == slice.StateRejected {
						b.Errorf("bench request rejected: %s", sl.Reason())
						return
					}
					if err := sys.Orchestrator.Delete(sl.ID()); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			cancel()
			wg.Wait()
			if b.N > 0 {
				b.ReportMetric(float64(consumed.Load())/float64(b.N), "events/op")
			}
		})
	}
}

// epochLoadedSystem builds a simulated system carrying n active slices with
// live demand processes — the fixture for the epoch-engine benchmarks. The
// testbed is scaled (aggregated carriers, lifted MOCN list, larger core DC,
// fat transport links) so the radio grid, not the model limits, is what
// binds; every slice is genuinely installed through the multi-domain engine.
func epochLoadedSystem(b testing.TB, n, shards int) *System {
	b.Helper()
	cfg := core.Config{
		Overbook:            true,
		Risk:                0.9,
		AdmissionLoadFactor: 0.5,
		PLMNLimit:           n + 8,
		HistoryLimit:        64,
		Shards:              shards,
	}
	sys, err := NewSimulated(Options{
		Seed:         1,
		Orchestrator: &cfg,
		Testbed: TestbedConfig{
			ENBs:          2,
			ENBCarriers:   n/50 + 2,
			MaxPLMNs:      n + 8,
			CoreHosts:     n/16 + 8,
			CoreHostVCPUs: 64,
			EdgeHosts:     4,
			MmWaveMbps:    1 << 20,
			MicroWaveMbps: 1 << 20,
			WiredMbps:     1 << 22,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := sys.Sim.Rand()
	for i := 0; i < n; i++ {
		sl, err := sys.Orchestrator.Submit(slice.Request{
			Tenant: fmt.Sprintf("epoch-%d", i),
			SLA: slice.SLA{
				ThroughputMbps: 2,
				MaxLatencyMs:   50,
				Duration:       1000 * time.Hour,
				PriceEUR:       10,
				PenaltyEUR:     1,
			},
		}, traffic.NewConstant(1, 0.15, rng))
		if err != nil {
			b.Fatal(err)
		}
		if sl.State() == slice.StateRejected {
			b.Fatalf("epoch bench slice %d rejected: %s", i, sl.Reason())
		}
	}
	sys.Sim.RunFor(15 * time.Second) // install stages + vEPC boot
	return sys
}

// BenchmarkEpoch measures one pass of the phase-structured control epoch at
// increasing registry sizes and shard counts. shards=1 is the serial path;
// shards=16 runs the per-shard monitor/forecast/provision phase in parallel
// workers. The DESIGN.md §7 scaling claim: slices=8192/shards=16 at least
// 2x faster than the pre-refactor stop-the-world epoch at the same size.
func BenchmarkEpoch(b *testing.B) {
	for _, n := range []int{64, 1024, 8192} {
		for _, shards := range []int{1, 16} {
			b.Run(fmt.Sprintf("slices=%d/shards=%d", n, shards), func(b *testing.B) {
				b.ReportAllocs()
				sys := epochLoadedSystem(b, n, shards)
				if got := sys.Orchestrator.ActiveCount(); got != n {
					b.Fatalf("loaded %d active slices, want %d", got, n)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sys.Orchestrator.RunEpoch()
				}
			})
		}
	}
}

// BenchmarkGainUnderLoad measures the dashboard's Gain() read while the
// sharded engine is busy admitting and tearing down slices — the read plane
// must not stall admission (and vice versa).
func BenchmarkGainUnderLoad(b *testing.B) {
	b.ReportAllocs()
	cfg := core.Config{
		Overbook:            true,
		Risk:                0.9,
		AdmissionLoadFactor: 0.5,
		PLMNLimit:           4096,
		HistoryLimit:        256,
		Shards:              16,
	}
	sys, err := NewLive(Options{
		Orchestrator: &cfg,
		Testbed: TestbedConfig{
			ENBs: 4, MaxPLMNs: 4096, CoreHosts: 32, EdgeHosts: 16,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	var churn sync.WaitGroup
	for w := 0; w < 4; w++ {
		churn.Add(1)
		go func(w int) {
			defer churn.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sl, err := sys.Orchestrator.Submit(slice.Request{
					Tenant: fmt.Sprintf("churn-%d", w),
					SLA: slice.SLA{
						ThroughputMbps: 2,
						MaxLatencyMs:   50,
						Duration:       time.Hour,
						PriceEUR:       10,
						PenaltyEUR:     1,
					},
				}, nil)
				if err != nil {
					b.Error(err)
					return
				}
				if sl.State() != slice.StateRejected {
					if err := sys.Orchestrator.Delete(sl.ID()); err != nil {
						b.Error(err)
						return
					}
				}
			}
		}(w)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			g := sys.Orchestrator.Gain()
			if g.CapacityMbps <= 0 {
				b.Error("bad report")
				return
			}
		}
	})
	b.StopTimer()
	close(stop)
	churn.Wait()
}

// BenchmarkAdmissionControl (D1) measures the admission decision itself on
// a loaded system, including the multi-domain feasibility checks.
func BenchmarkAdmissionControl(b *testing.B) {
	b.ReportAllocs()
	r, err := scenario.LoadedRunner(1, 12)
	if err != nil {
		b.Fatal(err)
	}
	// An unmeetable latency forces the full check path then rejection, so
	// state does not grow across iterations.
	req := benchReq(0)
	req.SLA.MaxLatencyMs = 0.01
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Orch.Submit(req, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdmissionKnapsack (D1) measures the offline revenue-maximization
// solver at increasing batch sizes.
func BenchmarkAdmissionKnapsack(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{8, 32, 128} {
		reqs := make([]core.KnapsackRequest, n)
		for i := range reqs {
			mbps := 5 + rng.Float64()*55
			reqs[i] = core.KnapsackRequest{
				Req: slice.Request{
					Tenant: "k",
					SLA: slice.SLA{
						ThroughputMbps: mbps, MaxLatencyMs: 50,
						Duration: time.Hour, PriceEUR: rng.Float64() * 200,
					},
				},
				LoadMbps: mbps,
			}
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.MaxRevenueSubset(reqs, 500)
			}
		})
	}
}

// BenchmarkGainTracking (D2) measures producing the gains-vs-penalties
// dashboard report on a loaded system.
func BenchmarkGainTracking(b *testing.B) {
	b.ReportAllocs()
	r, err := scenario.LoadedRunner(1, 12)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := r.Orch.Gain()
		if g.CapacityMbps <= 0 {
			b.Fatal("bad report")
		}
	}
}

// BenchmarkForecasters (D3) measures one observe+forecast step of each
// forecaster in the zoo.
func BenchmarkForecasters(b *testing.B) {
	mk := map[string]func() forecast.Forecaster{
		"naive":        func() forecast.Forecaster { return forecast.NewNaive() },
		"ma8":          func() forecast.Forecaster { return forecast.NewMovingAverage(8) },
		"ewma":         func() forecast.Forecaster { return forecast.NewEWMA(0.3) },
		"holt":         func() forecast.Forecaster { return forecast.NewHolt(0.4, 0.1) },
		"holt-winters": func() forecast.Forecaster { return forecast.NewHoltWinters(0.3, 0.05, 0.3, 96) },
	}
	rng := rand.New(rand.NewSource(1))
	series := make([]float64, 4096)
	for i := range series {
		series[i] = 100 + 40*rng.Float64()
	}
	for name, ctor := range mk {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			f := ctor()
			for i := 0; i < b.N; i++ {
				f.Observe(series[i%len(series)])
				_ = f.Forecast()
			}
		})
	}
}

// BenchmarkOverbookingSweep (D4) measures a complete (short) scenario run
// per risk level — the cost of regenerating one point of the trade-off
// curve.
func BenchmarkOverbookingSweep(b *testing.B) {
	for _, risk := range []float64{1.0, 0.95, 0.7} {
		b.Run(fmt.Sprintf("risk=%.2f", risk), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				scenario.MustRun(scenario.Options{
					Seed:             1,
					Duration:         2 * time.Hour,
					MeanInterarrival: 15 * time.Minute,
					Orchestrator: core.Config{
						Overbook: risk < 0.9995, Risk: risk, PLMNLimit: 32,
					},
				})
			}
		})
	}
}

// BenchmarkDomainUtilization (D5) measures one full telemetry push across
// the three domain controllers.
func BenchmarkDomainUtilization(b *testing.B) {
	b.ReportAllocs()
	r, err := scenario.LoadedRunner(1, 12)
	if err != nil {
		b.Fatal(err)
	}
	store := monitor.NewStore(1024)
	now := r.Sim.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.TB.Ctrl.PushTelemetry(store, now)
	}
}

// BenchmarkEmbedding (D6) measures the path-computation core of the
// multi-domain embedding: delay-constrained shortest path and the
// k-shortest alternative search on the testbed topology.
func BenchmarkEmbedding(b *testing.B) {
	tb, err := testbed.New(testbed.Config{ENBs: 8}, nil)
	if err != nil {
		b.Fatal(err)
	}
	req := transport.PathRequest{From: testbed.ENBName(0), To: testbed.CoreDC, MinMbps: 20, MaxDelayMs: 50}
	b.Run("shortest-path", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := tb.Transport.ShortestPath(req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("k-shortest-3", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := tb.Transport.KShortestPaths(req, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkScheduler measures one RAN scheduling epoch (the per-epoch inner
// loop of the monitoring stage) with shared-PRB multiplexing on and off.
func BenchmarkScheduler(b *testing.B) {
	r, err := scenario.LoadedRunner(1, 12)
	if err != nil {
		b.Fatal(err)
	}
	demand := map[slice.PLMN]float64{}
	for _, sn := range r.Orch.List() {
		if sn.State == "active" {
			demand[sn.Allocation.PLMN] = sn.SLA.ThroughputMbps * 0.5
		}
	}
	for _, share := range []bool{false, true} {
		b.Run(fmt.Sprintf("share=%v", share), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.TB.Ctrl.RAN.ScheduleEpoch(demand, share)
			}
		})
	}
}

// BenchmarkDemandSampling measures the traffic generators feeding the
// monitoring pipeline.
func BenchmarkDemandSampling(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	at := time.Date(2018, 8, 20, 12, 0, 0, 0, time.UTC)
	gens := map[string]traffic.Demand{
		"constant": traffic.NewConstant(20, 1, rng),
		"diurnal":  traffic.NewDiurnal(50, 20, 20, 3, rng),
		"bursty":   traffic.NewBursty(5, 50, 0.1, 0.3, 1, rng),
	}
	for name, g := range gens {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Sample(at)
			}
		})
	}
}

// durableSystem builds a wall-clock System persisting every mutation to a
// fresh file-backed WAL — the fixture for the durable-path benchmarks.
func durableSystem(b *testing.B, shards int) *System {
	b.Helper()
	cfg := core.Config{
		Overbook:            true,
		Risk:                0.9,
		AdmissionLoadFactor: 0.5,
		PLMNLimit:           4096,
		HistoryLimit:        256,
		Shards:              shards,
	}
	sys, err := NewLiveDurable(Options{
		Orchestrator: &cfg,
		Testbed: TestbedConfig{
			ENBs: 4, MaxPLMNs: 4096, CoreHosts: 32, EdgeHosts: 16,
		},
	}, b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := sys.CloseWAL(); err != nil {
			b.Error(err)
		}
	})
	return sys
}

// BenchmarkDurableAdmission measures the durable admit→teardown cycle — the
// F3 hot path with every operation's records fsynced before Submit/Delete
// return — under group commit. The writers axis is the group-commit story:
// at writers=1 the pipeline degenerates to a synchronous group of one
// (fsyncs/op = 1); at writers=64 concurrent committers share fsyncs, and the
// reported fsyncs/op metric (fsyncs per durable commit, from the
// orchestrator's persistence counters) collapses toward 1/groupsize. The
// mode=group name component pairs the rows with the BENCH_<n>.json
// trajectory.
func BenchmarkDurableAdmission(b *testing.B) {
	for _, shards := range []int{1, 16} {
		for _, writers := range []int{1, 64} {
			b.Run(fmt.Sprintf("mode=group/shards=%d/writers=%d", shards, writers), func(b *testing.B) {
				b.ReportAllocs()
				sys := durableSystem(b, shards)
				before := sys.Orchestrator.PersistStatus()
				var next atomic.Int64
				var wg sync.WaitGroup
				b.ResetTimer()
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						tenant := fmt.Sprintf("durable-%d", w)
						for next.Add(1) <= int64(b.N) {
							sl, err := sys.Orchestrator.Submit(slice.Request{
								Tenant: tenant,
								SLA: slice.SLA{
									ThroughputMbps: 2,
									MaxLatencyMs:   50,
									Duration:       time.Hour,
									PriceEUR:       10,
									PenaltyEUR:     1,
								},
							}, nil)
							if err != nil {
								b.Error(err)
								return
							}
							if sl.State() == slice.StateRejected {
								b.Errorf("bench request rejected: %s", sl.Reason())
								return
							}
							if err := sys.Orchestrator.Delete(sl.ID()); err != nil {
								b.Error(err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
				b.StopTimer()
				after := sys.Orchestrator.PersistStatus()
				if ops := after.CommitOps - before.CommitOps; ops > 0 {
					b.ReportMetric(float64(after.Fsyncs-before.Fsyncs)/float64(ops), "fsyncs/op")
				}
			})
		}
	}
}

// BenchmarkDurableBatch measures durable batch admission: SubmitBatch makes
// the whole batch durable with a single commit at the batch edge, so the
// per-item fsync share falls with batch size even from a single driver —
// the static counterpart of the dynamic grouping BenchmarkDurableAdmission
// measures across concurrent submitters.
func BenchmarkDurableBatch(b *testing.B) {
	for _, size := range []int{8, 64} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			sys := durableSystem(b, 16)
			before := sys.Orchestrator.PersistStatus()
			items := make([]core.BatchItem, size)
			b.ResetTimer()
			var ops int
			for i := 0; i < b.N; i++ {
				for j := range items {
					items[j] = core.BatchItem{Request: slice.Request{
						Tenant: fmt.Sprintf("batch-%d", j),
						SLA: slice.SLA{
							ThroughputMbps: 2,
							MaxLatencyMs:   50,
							Duration:       time.Hour,
							PriceEUR:       10,
							PenaltyEUR:     1,
						},
					}}
				}
				sls, err := sys.Orchestrator.SubmitBatch(items, core.BatchFCFS)
				if err != nil {
					b.Fatal(err)
				}
				ops += len(sls)
				for _, sl := range sls {
					if sl.State() == slice.StateRejected {
						b.Fatalf("batch item rejected: %s", sl.Reason())
					}
					if err := sys.Orchestrator.Delete(sl.ID()); err != nil {
						b.Fatal(err)
					}
					ops++
				}
			}
			b.StopTimer()
			after := sys.Orchestrator.PersistStatus()
			if ops > 0 {
				b.ReportMetric(float64(after.Fsyncs-before.Fsyncs)/float64(ops), "fsyncs/item")
			}
		})
	}
}

// BenchmarkFederatedAdmission (PR 8) measures the federation-tier admission
// hot path — deterministic placement over the hierarchical capacity ledger
// plus the two-phase span install across member clusters — at growing
// membership. The request is sized to 60% of the federated headroom, so at
// clusters=1 it is a single-leg admission and at 2 and 4 it forces a
// cross-cluster span (the reverse-order abort path is exercised by the
// paired Delete, which keeps the books level across iterations).
func BenchmarkFederatedAdmission(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("clusters=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			sys, err := NewSimulatedFederation(FederationOptions{
				Seed:     1,
				Clusters: DefaultFederationClusters(n),
			})
			if err != nil {
				b.Fatal(err)
			}
			fed := sys.Federation
			var total float64
			for _, in := range fed.ClusterInfos() {
				total += in.HeadroomMbps
			}
			req := SpanRequest{
				Tenant: "bench",
				SLA: SLA{
					ThroughputMbps: 0.6 * total,
					MaxLatencyMs:   50,
					Duration:       time.Hour,
					PriceEUR:       100,
					PenaltyEUR:     1,
				},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := fed.Submit(req)
				if err != nil {
					b.Fatal(err)
				}
				if st.State != "installed" {
					b.Fatalf("span rejected: %+v", st)
				}
				if err := fed.Delete(st.ID); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTemplateInstantiation (PR 10) measures the intent plane's bulk
// fleet-instantiation path — one published template expanded tenant-major
// over tenants×regions cells, admitted through SubmitBatch, provision-
// capped, and recorded as a fleet. The paired per-member Delete keeps the
// capacity ledger level across iterations, so ns/op is the steady-state
// cost of one whole fleet (instantiate + caps + teardown), not of a single
// slice.
func BenchmarkTemplateInstantiation(b *testing.B) {
	for _, dims := range []struct{ tenants, regions int }{{4, 1}, {4, 2}, {8, 2}} {
		b.Run(fmt.Sprintf("cells=%d", dims.tenants*dims.regions), func(b *testing.B) {
			b.ReportAllocs()
			cfg := core.Config{
				Overbook:            true,
				Risk:                0.9,
				AdmissionLoadFactor: 0.5,
				PLMNLimit:           4096,
				HistoryLimit:        256,
				Shards:              16,
			}
			sys, err := NewLive(Options{
				Orchestrator: &cfg,
				Testbed: TestbedConfig{
					ENBs: 4, MaxPLMNs: 4096, CoreHosts: 32, EdgeHosts: 16,
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			m := NewIntentManager(sys, IntentConfig{})
			tpl := intent.Template{
				Name:           "bench",
				ThroughputMbps: 2,
				MaxLatencyMs:   50,
				Duration:       time.Hour,
				PriceEUR:       10,
				PenaltyEUR:     1,
			}
			if _, err := m.Store().CreateDraft(tpl, time.Unix(0, 0)); err != nil {
				b.Fatal(err)
			}
			if _, err := m.Store().Publish("bench", 1, time.Unix(0, 0)); err != nil {
				b.Fatal(err)
			}
			tenants := make([]string, dims.tenants)
			for i := range tenants {
				tenants[i] = fmt.Sprintf("bench-tenant-%d", i)
			}
			regions := []intent.Region{intent.RegionCore, intent.RegionEdge}[:dims.regions]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := m.Instantiate("bench", 1, tenants, regions, core.BatchFCFS, nil)
				if err != nil {
					b.Fatal(err)
				}
				if f.Rejected != 0 {
					b.Fatalf("fleet rejected %d cells", f.Rejected)
				}
				for _, mem := range f.Members {
					if err := sys.Orchestrator.Delete(mem.Slice); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// discardResponse is the cheapest http.ResponseWriter: it keeps the header
// map between requests and counts the body, so what a benchmark measures is
// the handler.
type discardResponse struct {
	header http.Header
	status int
	bytes  int
}

func (d *discardResponse) Header() http.Header { return d.header }
func (d *discardResponse) WriteHeader(status int) {
	d.status = status
}
func (d *discardResponse) Write(p []byte) (int, error) {
	d.bytes += len(p)
	return len(p), nil
}

// listPageFixture is a 16-shard system with n active slices behind the REST
// server, the dashboard's poll (`GET /api/v2/slices?limit=50`) ready to
// serve, and the 50 slices that page returns.
type listPageFixture struct {
	srv  http.Handler
	req  *http.Request
	page []*slice.Slice
}

func newListPageFixture(tb testing.TB, n int) *listPageFixture {
	tb.Helper()
	sys := epochLoadedSystem(tb, n, 16)
	sys.Orchestrator.RunEpoch()
	f := &listPageFixture{
		srv: restapi.NewServer(sys.Orchestrator),
		req: httptest.NewRequest(http.MethodGet, "/api/v2/slices?limit=50", nil),
	}
	first, err := sys.Orchestrator.ListFiltered(core.ListOptions{Limit: 50})
	if err != nil || len(first.Slices) != 50 || first.NextPageToken != "50" {
		tb.Fatalf("first page: %d slices, token %q, err %v", len(first.Slices), first.NextPageToken, err)
	}
	for _, snap := range first.Slices {
		sl, ok := sys.Orchestrator.Get(snap.ID)
		if !ok {
			tb.Fatalf("listed slice %s not found", snap.ID)
		}
		f.page = append(f.page, sl)
	}
	return f
}

// serve answers the poll once and returns the body size.
func (f *listPageFixture) serve(tb testing.TB, w *discardResponse) int {
	w.status, w.bytes = 0, 0
	f.srv.ServeHTTP(w, f.req)
	if w.status != http.StatusOK || w.bytes < 50*300 {
		tb.Fatalf("list page: status %d, %d bytes", w.status, w.bytes)
	}
	return w.bytes
}

// touch mutates every slice of the page, as a control epoch does: the next
// poll finds no current fragment and pays the encode.
func (f *listPageFixture) touch(i int) {
	for _, sl := range f.page {
		sl.UpdateAllocatedMbps(1 + float64(i%7)/8)
	}
}

// BenchmarkListPage measures the dashboard's poll at two registry sizes.
// warm: nothing changed since the last poll — the page is selected through
// the shards' ordered lists and assembled from cached fragments, so its cost
// must not depend on the registry (8192 within 1.5x of 512). cold: every
// slice of the page changed between polls (the worst case: a poller no
// faster than the control epoch) — today's Snapshot + encoding/json per
// slice, plus the fragment buffers.
func BenchmarkListPage(b *testing.B) {
	for _, mode := range []string{"warm", "cold"} {
		for _, n := range []int{512, 8192} {
			b.Run(fmt.Sprintf("%s/slices=%d", mode, n), func(b *testing.B) {
				b.ReportAllocs()
				f := newListPageFixture(b, n)
				w := &discardResponse{header: make(http.Header)}
				f.serve(b, w)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "cold" {
						f.touch(i)
					}
					b.SetBytes(int64(f.serve(b, w)))
				}
			})
		}
	}
}

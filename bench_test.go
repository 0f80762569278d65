// The repository's performance is stated and gated by one harness: bench/
// (go run ./bench, declared in BENCHMARK.json; DESIGN.md §4 maps every claim
// to its workload and metric). This file holds the fixtures of the allocation
// guards in alloc_guard_test.go and the micro-benchmarks that survive under
// one rule: a root micro-benchmark stays only while no bench/ workload or
// per-layer metric exercises the same path, and its doc comment says so in
// one "Kept:" line naming what would retire it. They gate nothing; CI runs
// each once as a smoke test.
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
	"repro/internal/ctrl"
	"repro/internal/intent"
	"repro/internal/monitor"
	"repro/internal/restapi"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/testbed"
	"repro/internal/traffic"
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

// saturatedSystem builds a peak-provisioned live system whose capacity
// ledger is filled to the brim, so every further request is a certain
// rejection — the fixture for the reject storm below and the
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

// BenchmarkParallelAdmissionReject is an overload storm against a saturated
// system, answered from every core at once by the SubmitFast zero-allocation
// fast-reject path. Steady state must report 0 allocs/op — every rejection
// cause comes from and returns to the pool, and the ledger and per-cell
// checks touch neither the WAL, the event bus nor the slice registry.
//
// Kept: bench/'s core.submit_fast_ns times SubmitFast from one goroutine and
// reject_storm has one client; a multi-client reject workload retires this.
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
// that event publication stays off the sharded hot path: ns/op must not grow
// with the subscriber count (each admit+delete publishes three events;
// subscribers drain concurrently and the slowest merely resyncs, never
// stalling Submit). Each subscriber counts the events delivered to it and,
// from each EventResync marker's Seq, the events the ring lapped it on;
// delivered/op, lost/op and resyncs/op are summed over subscribers. How a
// subscriber's share splits between delivered and lost depends on
// scheduling; their sum does not: once every subscriber has drained to the
// last published Seq, delivered plus lost must equal what was published.
//
// Kept: poll_watch has one SSE subscriber; a workload with a subscriber-count
// axis retires this.
func BenchmarkWatchFanout(b *testing.B) {
	// fanoutSub is one subscriber's tally. last is the Seq it has accounted
	// up to, read while it drains; the counts are read after it stopped.
	type fanoutSub struct {
		delivered, lost, resyncs int64
		last                     atomic.Int64
	}
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
			bus := sys.Orchestrator.Events()
			start := bus.LastSeq()
			ctx, cancel := context.WithCancel(context.Background())
			tallies := make([]fanoutSub, subs)
			var wg sync.WaitGroup
			for i := range tallies {
				sub := &tallies[i]
				sub.last.Store(start)
				ch := sys.Orchestrator.Watch(ctx, WatchOptions{Buffer: 256})
				wg.Add(1)
				go func() {
					defer wg.Done()
					for ev := range ch {
						if ev.Type == EventResync {
							sub.resyncs++
							sub.lost += ev.Seq - sub.last.Load()
						} else {
							sub.delivered++
						}
						sub.last.Store(ev.Seq)
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
			head := bus.LastSeq()
			for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
				drained := 0
				for i := range tallies {
					if tallies[i].last.Load() == head {
						drained++
					}
				}
				if drained == subs {
					break
				}
				if time.Now().After(deadline) {
					b.Fatalf("%d of %d subscribers drained to Seq %d within a minute", drained, subs, head)
				}
			}
			cancel()
			wg.Wait()
			var delivered, lost, resyncs int64
			for i := range tallies {
				sub := &tallies[i]
				if sub.delivered+sub.lost != head-start {
					b.Fatalf("subscriber %d: %d delivered + %d lost, %d published", i, sub.delivered, sub.lost, head-start)
				}
				delivered, lost, resyncs = delivered+sub.delivered, lost+sub.lost, resyncs+sub.resyncs
			}
			if b.N > 0 {
				b.ReportMetric(float64(delivered)/float64(b.N), "delivered/op")
				b.ReportMetric(float64(lost)/float64(b.N), "lost/op")
				b.ReportMetric(float64(resyncs)/float64(b.N), "resyncs/op")
			}
		})
	}
}

// epochLoadedSystem builds a simulated system carrying n active slices with
// live demand processes — the fixture of the epoch, resize and list-page
// guards, and the configuration bench/'s epoch_1k workload reproduces. The
// testbed is scaled (aggregated carriers, lifted MOCN list, larger core DC,
// fat transport links) so the radio grid, not the model limits, is what
// binds; every slice is genuinely installed through the multi-domain engine.
func epochLoadedSystem(b testing.TB, n, shards int) *System {
	return epochLoadedSystemWrapped(b, n, shards, nil)
}

// epochLoadedSystemWrapped is epochLoadedSystem with wrap installed as the
// controllers' ctrl.Set.Wrap decoration (nil for none) before the
// orchestrator is built — NewSimulated's assembly with that one step added.
func epochLoadedSystemWrapped(b testing.TB, n, shards int, wrap func(ctrl.Domain) ctrl.Domain) *System {
	b.Helper()
	return epochSystem(b, n, shards, wrap, func(_ int, rng *rand.Rand) traffic.Demand {
		return traffic.NewConstant(1, 0.15, rng)
	})
}

// epochSystem is epochLoadedSystemWrapped with slice i's demand process made
// by demand from the system's own seeded generator.
func epochSystem(b testing.TB, n, shards int, wrap func(ctrl.Domain) ctrl.Domain, demand func(i int, rng *rand.Rand) traffic.Demand) *System {
	b.Helper()
	cfg := core.Config{
		Overbook:            true,
		Risk:                0.9,
		AdmissionLoadFactor: 0.5,
		PLMNLimit:           n + 8,
		HistoryLimit:        64,
		Shards:              shards,
	}
	s := sim.NewSimulator(1)
	tb, err := testbed.New(TestbedConfig{
		ENBs:          2,
		ENBCarriers:   n/50 + 2,
		MaxPLMNs:      n + 8,
		CoreHosts:     n/16 + 8,
		CoreHostVCPUs: 64,
		EdgeHosts:     4,
		MmWaveMbps:    1 << 20,
		MicroWaveMbps: 1 << 20,
		WiredMbps:     1 << 22,
	}, s.Rand())
	if err != nil {
		b.Fatal(err)
	}
	tb.Ctrl.Wrap = wrap
	sys := &System{Sim: s, Clock: s, Testbed: tb, Orchestrator: core.New(cfg, tb, s, monitor.NewStore(8192))}
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
		}, demand(i, rng))
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

// durableSystem builds a wall-clock System persisting every mutation to a
// fresh file-backed WAL — the fixture of BenchmarkDurableAdmission.
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

// BenchmarkDurableAdmission measures the durable admit→teardown cycle — every
// operation's records fsynced before Submit/Delete return — under group
// commit. The writers axis is the group-commit story: at writers=1 the
// pipeline degenerates to a synchronous group of one (fsyncs/op = 1); at
// writers=64 concurrent committers share fsyncs, and the reported fsyncs/op
// metric (fsyncs per durable commit, from the orchestrator's persistence
// counters) collapses toward 1/groupsize.
//
// Kept: churn_durable has one closed-loop client, so its core.max_group is 1
// and wal.fsyncs_per_op is 1; a multi-client churn_durable (ROADMAP item 6b)
// retires this.
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

// BenchmarkFederatedAdmission (PR 8) measures the federation-tier admission
// hot path — deterministic placement over the hierarchical capacity ledger
// plus the two-phase span install across member clusters — at growing
// membership. The request is sized to 60% of the federated headroom, so at
// clusters=1 it is a single-leg admission and at 2 and 4 it forces a
// cross-cluster span (the reverse-order abort path is exercised by the
// paired Delete, which keeps the books level across iterations).
//
// Kept: no bench/ workload drives /api/v2/federation/; a fed_span workload
// (ROADMAP item 6a) retires this.
func BenchmarkFederatedAdmission(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("clusters=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			sys, err := NewSimulatedFederation(FederationOptions{
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
//
// Kept: no bench/ workload drives /api/v2/templates|fleets|rollouts; a
// fleet_rollout workload (ROADMAP item 6a) retires this.
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
	resize := func(a *slice.Allocation) { a.AllocatedMbps = 1 + float64(i%7)/8 }
	for _, sl := range f.page {
		sl.UpdateAllocation(resize)
	}
}

// BenchmarkListPage measures the dashboard's poll at two registry sizes.
// warm: nothing changed since the last poll — the page is selected through
// the shards' ordered lists and assembled from cached fragments, so its cost
// must not depend on the registry (8192 within 1.5x of 512). cold: every
// slice of the page changed between polls (the worst case: a poller no
// faster than the control epoch) — today's Snapshot + encoding/json per
// slice, plus the fragment buffers.
//
// Kept: bench/'s core.list_page_us.p0/.p512 stop at 512 slices and never
// touch every slice of the page between polls; a poll_watch variant at 8192
// slices with a cold-page metric retires this (the fixture stays for
// TestListPageAllocCeiling).
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

package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

// concurrentEnv builds a wall-clock orchestrator over a testbed large
// enough that many small slices are in flight at once.
func concurrentEnv(t *testing.T, shards int) *Orchestrator {
	t.Helper()
	tb, err := testbed.New(testbed.Config{
		ENBs:      4,
		MaxPLMNs:  512,
		CoreHosts: 16,
		EdgeHosts: 8,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return New(Config{
		Overbook:            true,
		Risk:                0.9,
		AdmissionLoadFactor: 0.5,
		PLMNLimit:           512,
		Shards:              shards,
		HistoryLimit:        64,
	}, tb, sim.NewRealtimeClock(), monitor.NewStore(256))
}

func smallReq(tenant string) slice.Request {
	return slice.Request{
		Tenant: tenant,
		SLA: slice.SLA{
			ThroughputMbps: 2,
			MaxLatencyMs:   50,
			Duration:       time.Hour,
			PriceEUR:       10,
			PenaltyEUR:     1,
		},
	}
}

// TestConcurrentAdmitTeardownEpochRollover drives parallel admissions,
// demand recording and teardowns across tenants while epoch rollovers,
// gain/list reads and transport restoration passes run concurrently — the
// workload the sharded engine exists for. Run with -race; the final
// invariants catch leaked reservations and lost counter updates.
func TestConcurrentAdmitTeardownEpochRollover(t *testing.T) {
	o := concurrentEnv(t, 8)

	const workers = 8
	const perWorker = 40
	var wg sync.WaitGroup
	var mu sync.Mutex
	var admittedIDs []slice.ID
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sl, err := o.Submit(smallReq(fmt.Sprintf("tenant-%d-%d", w, i)), nil)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if sl.State() == slice.StateRejected {
					continue
				}
				// The flapper may terminate-and-evict the slice first, so
				// "unknown slice" is a legitimate outcome here too.
				if err := o.RecordDemand(sl.ID(), 1); err != nil &&
					!strings.Contains(err.Error(), "unknown") {
					t.Errorf("record demand: %v", err)
				}
				// Tear half down immediately; the rest die at the end.
				// The concurrent link-flapper may beat us to it ("already
				// terminated"), and the bounded history may then evict the
				// corpse ("unknown slice") — both are legitimate races.
				if i%2 == 0 {
					if err := o.Delete(sl.ID()); err != nil &&
						!strings.Contains(err.Error(), "already") &&
						!strings.Contains(err.Error(), "unknown") {
						t.Errorf("delete: %v", err)
					}
				} else {
					mu.Lock()
					admittedIDs = append(admittedIDs, sl.ID())
					mu.Unlock()
				}
			}
		}(w)
	}

	// Concurrent epoch rollovers and whole-registry reads.
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				o.RunEpoch()
				o.Gain()
				o.List()
				o.ActiveCount()
			}
		}
	}()
	// Concurrent link flapping exercises the restoration pass.
	bg.Add(1)
	go func() {
		defer bg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				if _, err := o.HandleLinkFailure(testbed.ENBName(0), testbed.Switch); err != nil {
					t.Errorf("link failure: %v", err)
					return
				}
				if err := o.RestoreLink(testbed.ENBName(0), testbed.Switch); err != nil {
					t.Errorf("restore link: %v", err)
					return
				}
			}
		}
	}()

	wg.Wait()
	close(stop)
	bg.Wait()

	// Every submission is accounted exactly once.
	g := o.Gain()
	if got := g.Admitted + g.Rejected; got != workers*perWorker {
		t.Fatalf("admitted %d + rejected %d = %d, want %d", g.Admitted, g.Rejected, got, workers*perWorker)
	}

	// Tear the survivors down (link flapping may already have dropped
	// some); afterwards every domain must be empty and the capacity
	// ledger drained — any leak means a lost two-phase release.
	for _, id := range admittedIDs {
		if sl, ok := o.Get(id); ok && sl.State() != slice.StateTerminated {
			if err := o.Delete(id); err != nil {
				t.Fatalf("final delete %s: %v", id, err)
			}
		}
	}
	// Bandwidth bookkeeping is float add/subtract in reroute order, so an
	// empty network may carry ~1e-16 residue; anything larger is a leak.
	const eps = 1e-9
	if u := o.tb.Ctrl.RAN.Utilization(); u != 0 {
		t.Fatalf("RAN utilization %.4f after teardown", u)
	}
	if u := o.tb.Ctrl.Cloud.Utilization(); u != 0 {
		t.Fatalf("cloud utilization %.4f after teardown", u)
	}
	if mean, _ := o.tb.Transport.Utilization(); math.Abs(mean) > eps {
		t.Fatalf("transport utilization %g after teardown", mean)
	}
	if load := o.ledger.Load(); load != 0 {
		t.Fatalf("capacity ledger holds %d kbps after teardown", load)
	}
	if g := o.Gain(); g.ContractedMbps != 0 || g.AllocatedMbps != 0 {
		t.Fatalf("live totals (%v contracted, %v allocated Mbps) after teardown, want exact 0", g.ContractedMbps, g.AllocatedMbps)
	}
}

// TestShardCountDoesNotChangeOutcomes runs the same deterministic simulated
// workload at 1 and 16 shards and requires identical results: sharding is
// a contention optimization, not a policy change.
func TestShardCountDoesNotChangeOutcomes(t *testing.T) {
	run := func(shards int) GainReport {
		s := sim.NewSimulator(7)
		tb, err := testbed.New(testbed.Default(), s.Rand())
		if err != nil {
			t.Fatal(err)
		}
		o := New(Config{Overbook: true, Risk: 0.9, Shards: shards}, tb, s, monitor.NewStore(512))
		o.Start()
		for i := 0; i < 8; i++ {
			if _, err := o.Submit(req(fmt.Sprintf("t%d", i), 25, 50, 2*time.Hour, 40),
				traffic.NewConstant(8, 0.5, s.Rand())); err != nil {
				t.Fatal(err)
			}
			s.RunFor(10 * time.Minute)
		}
		s.RunFor(time.Hour)
		return o.Gain()
	}
	one, sixteen := run(1), run(16)
	if !reflect.DeepEqual(one, sixteen) {
		t.Fatalf("shard count changed outcomes:\n 1 shard: %+v\n16 shards: %+v", one, sixteen)
	}
}

// TestConcurrentSubmitSqueeze forces the squeeze path (radio full at face
// value) from parallel submissions: the shard-lock release/re-acquire dance
// around the whole-registry squeeze must not deadlock or leak.
func TestConcurrentSubmitSqueeze(t *testing.T) {
	tb, err := testbed.New(testbed.Config{MaxPLMNs: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := New(Config{
		Overbook:            true,
		Risk:                0.9,
		AdmissionLoadFactor: 0.2,
		PLMNLimit:           64,
		Shards:              4,
	}, tb, sim.NewRealtimeClock(), monitor.NewStore(256))

	// ~103 Mbps capacity: 12 × 20 Mbps contracts oversubscribe it, so
	// later installs must squeeze earlier ones down to their estimates.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				r := smallReq(fmt.Sprintf("squeeze-%d-%d", w, i))
				r.SLA.ThroughputMbps = 20
				if _, err := o.Submit(r, nil); err != nil {
					t.Errorf("submit: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	g := o.Gain()
	if g.Admitted+g.Rejected != 12 {
		t.Fatalf("accounted %d of 12 submissions", g.Admitted+g.Rejected)
	}
	if g.Admitted < 2 {
		t.Fatalf("only %d admitted; squeeze path not effective", g.Admitted)
	}
}

// TestConcurrentSubmitDeleteWatchDuringEpochs hammers the phase-pipelined
// epoch: back-to-back RunEpoch passes (serial head, ordered analysis and
// charge, ordered commit, snapshot publish) run while workers submit,
// record demand and delete slices and a Watch subscriber drains the ordered
// event stream. Run with -race; the final invariants catch lost counter
// updates and a stale or inconsistent published snapshot.
func TestConcurrentSubmitDeleteWatchDuringEpochs(t *testing.T) {
	o := concurrentEnv(t, 16)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := o.Watch(ctx, WatchOptions{Since: -1, Buffer: 1024})
	var consumed atomic.Int64
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range events {
			consumed.Add(1)
		}
	}()

	const workers = 8
	const perWorker = 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sl, err := o.Submit(smallReq(fmt.Sprintf("epoch-churn-%d-%d", w, i)), nil)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if sl.State() == slice.StateRejected {
					continue
				}
				if err := o.RecordDemand(sl.ID(), 1); err != nil &&
					!strings.Contains(err.Error(), "unknown") {
					t.Errorf("record demand: %v", err)
				}
				if i%2 == 0 {
					if err := o.Delete(sl.ID()); err != nil &&
						!strings.Contains(err.Error(), "already") &&
						!strings.Contains(err.Error(), "unknown") {
						t.Errorf("delete: %v", err)
					}
				}
			}
		}(w)
	}

	// Back-to-back epochs plus the lock-free read plane, concurrently.
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				o.RunEpoch()
				o.LastEpoch()
				o.Gain()
				o.ActiveCount()
				if _, err := o.ListFiltered(ListOptions{State: "active", Limit: 16}); err != nil {
					t.Errorf("list filtered: %v", err)
					return
				}
			}
		}
	}()

	wg.Wait()
	close(stop)
	bg.Wait()
	o.RunEpoch() // one quiet epoch so the snapshot reflects the final state

	g := o.Gain()
	if got := g.Admitted + g.Rejected; got != workers*perWorker {
		t.Fatalf("admitted %d + rejected %d = %d, want %d", g.Admitted, g.Rejected, got, workers*perWorker)
	}
	snap, ok := o.LastEpoch()
	if !ok {
		t.Fatal("no epoch snapshot published")
	}
	if snap.Gain.Admitted != g.Admitted || snap.Gain.Rejected != g.Rejected {
		t.Fatalf("quiet snapshot %d/%d diverged from live %d/%d",
			snap.Gain.Admitted, snap.Gain.Rejected, g.Admitted, g.Rejected)
	}
	cancel()
	<-drained
	if consumed.Load() == 0 {
		t.Fatal("watch subscriber saw no events")
	}
}

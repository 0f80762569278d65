package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/testbed"
)

// TestGrantChurnAudited churns concurrent admits, deletes and certain
// rejections (the abort path on every domain that granted before the
// transport said no) across shards, then sweeps the substrate books and the
// per-slice checks: a grant that reached another slice's binding, or an
// abort that released what it did not hold, surfaces here as a conservation
// violation or a data race.
func TestGrantChurnAudited(t *testing.T) {
	s := sim.NewSimulator(11)
	tb, err := testbed.New(testbed.Config{
		ENBs: 4, MaxPLMNs: 2048, CoreHosts: 16, EdgeHosts: 8,
		MECHosts: 2, MECHostCPUs: 32,
	}, s.Rand())
	if err != nil {
		t.Fatal(err)
	}
	o := New(Config{
		Overbook:            true,
		Risk:                0.9,
		AdmissionLoadFactor: 0.5,
		PLMNLimit:           2048,
		HistoryLimit:        64,
		Shards:              8,
		Audit:               true,
	}, tb, s, monitor.NewStore(1024))

	const workers, iters = 8, 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := fmt.Sprintf("churn-%d", w)
			for i := 0; i < iters; i++ {
				mk := func(mbps, latency float64) slice.Request {
					return slice.Request{
						Tenant: tenant,
						SLA: slice.SLA{
							ThroughputMbps: mbps, MaxLatencyMs: latency,
							Duration: time.Hour, PriceEUR: 10, PenaltyEUR: 1,
						},
					}
				}
				// Admissible request: exercises reserve→commit→apply.
				sl, err := o.Submit(mk(2, 50), nil)
				if err != nil {
					t.Error(err)
					return
				}
				if sl.State() != slice.StateRejected {
					if err := o.Delete(sl.ID()); err != nil {
						t.Error(err)
						return
					}
				}
				// Unmeetable latency: exercises the abort path on every
				// domain that granted before the transport dry run said no.
				if sl, err = o.Submit(mk(2, 0.01), nil); err != nil {
					t.Error(err)
					return
				}
				if sl.State() != slice.StateRejected {
					t.Error("unmeetable latency admitted")
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// One full conservation/leak sweep over the substrate books plus the
	// per-slice checks.
	o.AuditSweep()
	if vs := o.Auditor().Violations(); len(vs) != 0 {
		t.Fatalf("invariant violations after churn: %v", vs)
	}
	if n := o.ActiveCount(); n != 0 {
		t.Fatalf("%d slices still active after churn", n)
	}
}

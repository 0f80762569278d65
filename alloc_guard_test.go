package overbook

import (
	"net/http"
	"testing"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/slice"
)

// TestFastRejectZeroAllocs is the allocation regression guard for the
// SubmitFast fast-reject path: after the cause pool is warm, a rejection
// storm must allocate nothing — causes come from and return to the pool,
// and the ledger and per-cell checks read the controllers in place.
func TestFastRejectZeroAllocs(t *testing.T) {
	sys := saturatedSystem(t)
	req := saturatedReq()
	// Warm the cause pool.
	for i := 0; i < 16; i++ {
		cause := sys.Orchestrator.SubmitFast(req)
		if cause == nil {
			t.Fatal("saturated system accepted a fast-path request")
		}
		slice.RecycleRejection(cause)
	}
	allocs := testing.AllocsPerRun(200, func() {
		cause := sys.Orchestrator.SubmitFast(req)
		if cause == nil {
			t.Error("saturated system accepted a fast-path request")
			return
		}
		slice.RecycleRejection(cause)
	})
	if allocs != 0 {
		t.Fatalf("fast-reject path allocates: %.1f allocs/op, want 0", allocs)
	}
}

// TestAdmitAllocCeiling pins the allocation budget of the full pooled
// admit → install → delete cycle. The PR 6 baseline spent 435 allocs per
// cycle; the pooled engine runs it in 60. The ceiling leaves slack for
// map-growth jitter but fails loudly if pooling regresses — revisit the
// number only alongside a deliberate hot-path change.
func TestAdmitAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	const ceiling = 72
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
		t.Fatal(err)
	}
	req := benchReq(0)
	req.SLA.ThroughputMbps = 2
	// Warm every pool on the cycle.
	for i := 0; i < 8; i++ {
		sl, err := sys.Orchestrator.Submit(req, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sl.State() == slice.StateRejected {
			t.Fatalf("admit guard request rejected: %s", sl.Reason())
		}
		if err := sys.Orchestrator.Delete(sl.ID()); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		sl, err := sys.Orchestrator.Submit(req, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if sl.State() == slice.StateRejected {
			t.Errorf("admit guard request rejected: %s", sl.Reason())
			return
		}
		if err := sys.Orchestrator.Delete(sl.ID()); err != nil {
			t.Error(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("pooled admit cycle allocates %.1f allocs/op, ceiling %d", allocs, ceiling)
	}
	t.Logf("pooled admit cycle: %.1f allocs/op (ceiling %d)", allocs, ceiling)
}

// TestEpochAllocCeiling pins the allocation budget of one control epoch on
// a warm system. Before the epoch kept its working state across passes and
// resized allocations in place it spent 15 allocations per active slice
// (four deep allocation clones, a sorted registry copy, per-cell scheduler
// maps, telemetry batches). Since the domain controllers and the
// orchestrator resolve their telemetry series once, it spends a budget that
// does not grow with the slice count: a base of the gain fold's
// reject-reason map, with slack for a GC emptying the resize grant-list pool
// mid-run, and three per violation for its event's detail string (the
// string and its two boxed floats).
func TestEpochAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	const slices, runs, base, perViolation = 256, 20, 4, 3
	sys := epochLoadedSystem(t, slices, 16)
	if got := sys.Orchestrator.ActiveCount(); got != slices {
		t.Fatalf("loaded %d active slices, want %d", got, slices)
	}
	// Warm: per-slice and domain series resolved, epoch scratch sized.
	for i := 0; i < 8; i++ {
		sys.Orchestrator.RunEpoch()
	}
	g := sys.Orchestrator.Gain()
	allocs := testing.AllocsPerRun(runs, sys.Orchestrator.RunEpoch)
	after := sys.Orchestrator.Gain()
	if after.Reconfigurations == g.Reconfigurations {
		t.Fatal("no slice was resized during the measured epochs; the guard would prove nothing")
	}
	// AllocsPerRun runs the epoch once more than it averages over.
	violations := float64(after.ViolationEpochs-g.ViolationEpochs) / (runs + 1)
	ceiling := base + perViolation*violations
	t.Logf("%.0f allocs per %d-slice epoch, %.2f violations per epoch, ceiling %.1f", allocs, slices, violations, ceiling)
	if allocs > ceiling {
		t.Fatalf("control epoch allocates %.0f per pass over %d slices, ceiling %.1f (%d + %d per violation)",
			allocs, slices, ceiling, base, perViolation)
	}
}

// TestResizeZeroAllocs pins what one reconfiguration that goes through — the
// unit of the epoch's commit phase — allocates on a warm system with no WAL:
// nothing. The radio and transport resizes run through handles resolved at
// install, each grant is a view of the slice's binding, the grant list comes
// from and returns to its pool, the radio grant writes the PRBs into the
// allocation's own map, the slice is read once and written once, and the
// resize event is published by value. (The epoch ceiling above cannot see a
// single allocation per resize come back; this can.) It runs plain and with
// an identity ctrl.Set.Wrap installed: a decorated system allocates no more
// than the shipped one.
func TestResizeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	for _, tc := range []struct {
		name string
		wrap func(ctrl.Domain) ctrl.Domain
	}{
		{"plain", nil},
		{"wrapped", func(d ctrl.Domain) ctrl.Domain { return d }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := epochLoadedSystemWrapped(t, 8, 16, tc.wrap)
			o := sys.Orchestrator
			id := o.List()[0].ID
			targets := [2]float64{0.6, 1.8} // far enough apart to clear the hysteresis both ways
			resize := func(i int) {
				changed, err := o.Resize(id, targets[i%2])
				if err != nil || !changed {
					t.Fatalf("resize to %.1f Mbps: changed=%v err=%v", targets[i%2], changed, err)
				}
			}
			for i := 0; i < 8; i++ { // warm the grant-list pool
				resize(i)
			}
			i := 0
			allocs := testing.AllocsPerRun(200, func() { resize(i); i++ })
			if allocs != 0 {
				t.Fatalf("a resize that goes through allocates %.1f allocs/op, want 0", allocs)
			}
		})
	}
}

// TestListPageAllocCeiling pins what the dashboard's poll
// (GET /api/v2/slices?limit=50) allocates. Warm — nothing changed since the
// last poll — it is a small constant that must not depend on the registry:
// the ordered-index selection's scratch, the page's slice and fragment lists
// and the request's own parsing, with the body assembled from cached
// fragments in a recycled buffer (11 measured; the scan-and-sort listing it
// replaced spent 469 at 512 slices, and 1.1 MB per poll at 8192). Cold —
// every slice of the page changed since the last poll — pays one Snapshot
// and one encoding/json pass per slice, as every poll used to (11 per slice
// measured). The ceilings leave room for the race detector, under which
// sync.Pool drops items at random.
func TestListPageAllocCeiling(t *testing.T) {
	const warmCeiling, coldPerSlice = 16, 16
	var warm [2]float64
	for k, n := range []int{512, 8192} {
		f := newListPageFixture(t, n)
		w := &discardResponse{header: make(http.Header)}
		f.serve(t, w)
		warm[k] = testing.AllocsPerRun(100, func() { f.serve(t, w) })
		i := 0
		cold := testing.AllocsPerRun(20, func() {
			i++
			f.touch(i)
			f.serve(t, w)
		})
		t.Logf("%d slices: warm page %.0f allocs, cold page %.0f", n, warm[k], cold)
		if warm[k] > warmCeiling {
			t.Errorf("%d slices: warm page allocates %.0f, ceiling %d", n, warm[k], warmCeiling)
		}
		if limit := float64(coldPerSlice * len(f.page)); cold > limit {
			t.Errorf("%d slices: cold page allocates %.0f, ceiling %.0f (%d per listed slice)", n, cold, limit, coldPerSlice)
		}
	}
	if diff := warm[0] - warm[1]; diff < -1 || diff > 1 {
		t.Errorf("warm page allocations depend on the registry: %.0f at 512 slices, %.0f at 8192", warm[0], warm[1])
	}
}

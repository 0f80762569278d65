package core

// TestDryRunIsolation pins the dry-run mutation-freedom contract promised in
// dryrun.go: a burst of concurrent probes — feasible and infeasible alike —
// leaves the capacity ledger untouched, publishes zero events, and never
// perturbs the outcome of live admissions racing it.

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

// dryRunEnv builds a deterministic simulated-clock orchestrator with the
// invariant auditor attached. Time is never advanced, so every event and
// every ledger round trip comes from the calls the test makes.
func dryRunEnv(t *testing.T, seed int64) *Orchestrator {
	t.Helper()
	s := sim.NewSimulator(seed)
	tb, err := testbed.New(testbed.Config{
		ENBs:      4,
		MaxPLMNs:  256,
		CoreHosts: 8,
		EdgeHosts: 4,
	}, s.Rand())
	if err != nil {
		t.Fatal(err)
	}
	return New(Config{
		Overbook:            true,
		Risk:                0.9,
		AdmissionLoadFactor: 0.5,
		PLMNLimit:           256,
		Shards:              8,
		Audit:               true,
	}, tb, s, monitor.NewStore(256))
}

// dryRunProbes is the probe mix: admissible requests, a radio-capacity
// reject, and an unplaceable latency bound — every dry-run exit path.
func dryRunProbes(i int) slice.Request {
	switch i % 3 {
	case 0:
		return slice.Request{Tenant: fmt.Sprintf("probe-%d", i), SLA: slice.SLA{
			ThroughputMbps: 5, MaxLatencyMs: 50, Duration: time.Hour, PriceEUR: 20, PenaltyEUR: 1,
		}}
	case 1:
		return slice.Request{Tenant: fmt.Sprintf("probe-%d", i), SLA: slice.SLA{
			ThroughputMbps: 1e7, MaxLatencyMs: 50, Duration: time.Hour, PriceEUR: 1e6, PenaltyEUR: 1,
		}}
	default:
		return slice.Request{Tenant: fmt.Sprintf("probe-%d", i), SLA: slice.SLA{
			ThroughputMbps: 5, MaxLatencyMs: 1e-9, Duration: time.Hour, PriceEUR: 20, PenaltyEUR: 1,
		}}
	}
}

// dryRunBurst fires workers×perWorker probes concurrently and fails the
// test on transport-level errors (rejections are reports, not errors).
func dryRunBurst(t *testing.T, o *Orchestrator, workers, perWorker int) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := o.DryRun(dryRunProbes(w*perWorker + i)); err != nil {
					t.Errorf("dry-run: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// liveWorkload submits a deterministic sequence of admissions and teardowns
// from the calling goroutine. With a simulated clock that never advances,
// its effect on the ledger is a fixed sequence of reserve/release round
// trips — any concurrent mutation would shift the final load.
func liveWorkload(t *testing.T, o *Orchestrator, n int) {
	t.Helper()
	var ids []slice.ID
	for i := 0; i < n; i++ {
		sl, err := o.Submit(slice.Request{Tenant: fmt.Sprintf("live-%d", i), SLA: slice.SLA{
			ThroughputMbps: 3, MaxLatencyMs: 40, Duration: time.Hour, PriceEUR: 15, PenaltyEUR: 1,
		}}, nil)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if sl.State() != slice.StateRejected {
			ids = append(ids, sl.ID())
		}
		// Tear down every third admission so releases interleave with
		// reservations.
		if i%3 == 2 && len(ids) > 0 {
			if err := o.Delete(ids[0]); err != nil {
				t.Fatalf("teardown: %v", err)
			}
			ids = ids[1:]
		}
	}
}

func TestDryRunIsolation(t *testing.T) {
	// Phase 1: dry-runs against a quiescent orchestrator with live state.
	// Ledger bits, event sequence, and the audit verdict must not move.
	o := dryRunEnv(t, 42)
	liveWorkload(t, o, 30)
	o.AuditSweep()
	if v := o.Auditor().Violations(); len(v) != 0 {
		t.Fatalf("baseline not invariant-clean: %+v", v[0])
	}
	load := o.ledger.Load()
	seq := o.Events().LastSeq()
	digest := o.StateDigest()

	dryRunBurst(t, o, 8, 50)

	if got := o.ledger.Load(); got != load {
		t.Errorf("dry-run burst moved the ledger: %d -> %d kbps", load, got)
	}
	if got := o.Events().LastSeq(); got != seq {
		t.Errorf("dry-run burst published events: seq %d -> %d", seq, got)
	}
	if got := o.StateDigest(); string(got) != string(digest) {
		t.Errorf("dry-run burst changed the state digest:\nbefore: %s\nafter:  %s", digest, got)
	}
	o.AuditSweep()
	if v := o.Auditor().Violations(); len(v) != 0 {
		t.Errorf("audit after dry-run burst: %+v", v[0])
	}

	// Phase 2: the same deterministic live workload twice — once alone,
	// once racing a dry-run burst. The dry-runs must not shift a single
	// bit of the outcome.
	control := dryRunEnv(t, 7)
	liveWorkload(t, control, 60)

	racing := dryRunEnv(t, 7)
	done := make(chan struct{})
	go func() {
		defer close(done)
		dryRunBurst(t, racing, 8, 100)
	}()
	liveWorkload(t, racing, 60)
	<-done

	if cl, rl := control.ledger.Load(), racing.ledger.Load(); cl != rl {
		t.Errorf("dry-runs perturbed racing admissions: ledger %d vs %d kbps", cl, rl)
	}
	if cs, rs := control.Events().LastSeq(), racing.Events().LastSeq(); cs != rs {
		t.Errorf("dry-runs perturbed the event sequence: %d vs %d", cs, rs)
	}
	if cd, rd := control.StateDigest(), racing.StateDigest(); string(cd) != string(rd) {
		t.Errorf("dry-runs perturbed the state digest:\ncontrol: %s\nracing:  %s", cd, rd)
	}
	racing.AuditSweep()
	if v := racing.Auditor().Violations(); len(v) != 0 {
		t.Errorf("audit after racing burst: %+v", v[0])
	}
}

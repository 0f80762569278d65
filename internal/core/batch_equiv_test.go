package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/testbed"
	"repro/internal/wal"
)

// recoveredDigest closes the writer and rebuilds an orchestrator from the
// directory, returning the recovered replica's state digest.
func recoveredDigest(t *testing.T, cfg Config, dir string, w *wal.Writer) []byte {
	t.Helper()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s := sim.NewSimulator(1)
	tb, err := testbed.New(testbed.Default(), s.Rand())
	if err != nil {
		t.Fatal(err)
	}
	o, w2, err := Recover(cfg, tb, s, monitor.NewStore(512), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	return o.StateDigest()
}

// walRecords loads the directory's full record stream.
func walRecords(t *testing.T, dir string) []wal.Record {
	t.Helper()
	rec, err := wal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Records
}

// TestBatchedVsSequentialEquivalence proves the tentpole's exactness claim:
// for an all-feasible batch under FCFS, SubmitBatch (one feasibility sweep,
// one fsync at the batch edge) and item-by-item Submit produce identical
// slice outcomes, event sequences, ledger state, WAL record streams and
// crash-recovery digests — only the number of fsyncs differs.
func TestBatchedVsSequentialEquivalence(t *testing.T) {
	cfg := Config{Overbook: true, AdmissionLoadFactor: 1.0}
	items := make([]BatchItem, 4)
	for i := range items {
		items[i] = BatchItem{Request: slice.Request{
			Tenant: fmt.Sprintf("eq-%d", i),
			SLA: slice.SLA{
				ThroughputMbps: 10, MaxLatencyMs: 50,
				Duration: time.Hour, PriceEUR: 50, PenaltyEUR: 1,
			},
		}}
	}

	dirSeq, dirBatch := t.TempDir(), t.TempDir()
	_, oSeq, wSeq := durableEnv(t, cfg, dirSeq)
	_, oBatch, wBatch := durableEnv(t, cfg, dirBatch)

	var seqSlices []*slice.Slice
	for _, it := range items {
		sl, err := oSeq.Submit(it.Request, it.Demand)
		if err != nil {
			t.Fatal(err)
		}
		seqSlices = append(seqSlices, sl)
	}
	batchSlices, err := oBatch.SubmitBatch(items, BatchFCFS)
	if err != nil {
		t.Fatal(err)
	}

	for i := range items {
		a, b := seqSlices[i], batchSlices[i]
		if a.ID() != b.ID() || a.State() != b.State() {
			t.Fatalf("item %d diverged: sequential %s/%v, batched %s/%v",
				i, a.ID(), a.State(), b.ID(), b.State())
		}
		if a.State() == slice.StateRejected {
			t.Fatalf("item %d rejected in the all-feasible scenario: %s", i, a.Reason())
		}
	}

	// Ledger, gain, event head, slice registry: one canonical image.
	dSeq, dBatch := oSeq.StateDigest(), oBatch.StateDigest()
	if !bytes.Equal(dSeq, dBatch) {
		t.Fatalf("state digests diverged:\nsequential %s\nbatched    %s", dSeq, dBatch)
	}

	// WAL record streams must be byte-identical: batching moves the
	// durability boundary (one fsync per batch), never the records.
	if err := wSeq.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := wBatch.Sync(); err != nil {
		t.Fatal(err)
	}
	rSeq, rBatch := walRecords(t, dirSeq), walRecords(t, dirBatch)
	if len(rSeq) != len(rBatch) {
		t.Fatalf("record counts diverged: sequential %d, batched %d", len(rSeq), len(rBatch))
	}
	for i := range rSeq {
		a, b := rSeq[i], rBatch[i]
		if a.Seq != b.Seq || a.Type != b.Type || !bytes.Equal(a.Payload, b.Payload) {
			t.Fatalf("record %d diverged:\nsequential %d %s %s\nbatched    %d %s %s",
				i, a.Seq, a.Type, a.Payload, b.Seq, b.Type, b.Payload)
		}
	}

	// Crash-recovery replicas of both logs agree with each other and with
	// the live systems.
	recSeq := recoveredDigest(t, cfg, dirSeq, wSeq)
	recBatch := recoveredDigest(t, cfg, dirBatch, wBatch)
	if !bytes.Equal(recSeq, recBatch) {
		t.Fatalf("recovered digests diverged:\nsequential %s\nbatched    %s", recSeq, recBatch)
	}
	if !bytes.Equal(recSeq, dSeq) {
		t.Fatalf("recovery drifted from live state:\nlive      %s\nrecovered %s", dSeq, recSeq)
	}
}

// TestBatchOverflowConservation covers the overflow half: when the budget
// forces losers, the batch admits exactly the policy's chosen subset in
// arrival positions, charges the ledger only for winners, and the batched
// WAL (one fsync for the whole mixed batch) still recovers to the live
// state bit-exactly.
func TestBatchOverflowConservation(t *testing.T) {
	cfg := Config{} // peak provisioning: estimates are the full contracts
	dir := t.TempDir()
	_, o, w := durableEnv(t, cfg, dir)

	items := suboptimalBatch() // 60+40+40+10 Mbps against ~93 Mbps of budget
	budget := (o.admissionCap() - o.ledger.Load()).Mbps()
	reqs := make([]KnapsackRequest, len(items))
	for i, it := range items {
		reqs[i] = KnapsackRequest{Req: it.Request, LoadMbps: o.admissionEstimate(it.Request.SLA)}
	}
	chosen, _ := GreedyRevenueSubset(reqs, budget)
	want := make(map[int]bool, len(chosen))
	for _, i := range chosen {
		want[i] = true
	}
	if len(chosen) == 0 || len(chosen) == len(items) {
		t.Fatalf("fixture lost its tension: %d of %d chosen", len(chosen), len(items))
	}

	slices, err := o.SubmitBatch(items, BatchFCFS)
	if err != nil {
		t.Fatal(err)
	}
	var wantLoad slice.Kbps
	for i, sl := range slices {
		if want[i] {
			if sl.State() == slice.StateRejected {
				t.Fatalf("winner %d rejected: %s", i, sl.Reason())
			}
			wantLoad += o.ledgerEstimate(reqs[i].Req.SLA)
			continue
		}
		if sl.State() != slice.StateRejected {
			t.Fatalf("loser %d admitted: %v", i, sl.State())
		}
	}
	if got := o.ledger.Load(); got != wantLoad {
		t.Fatalf("ledger conservation broken: %v kbps charged, winners total %v", got, wantLoad)
	}

	live := o.StateDigest()
	if rec := recoveredDigest(t, cfg, dir, w); !bytes.Equal(rec, live) {
		t.Fatalf("overflow batch recovery drifted:\nlive      %s\nrecovered %s", live, rec)
	}
}

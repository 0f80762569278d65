package core

import (
	"context"
	"fmt"

	"repro/internal/slice"
	"repro/internal/traffic"
)

// Batch admission: when several slice requests are pending at once (the
// broker setting of reference [3]), admitting them first-come-first-served
// can strand capacity on low-value slices. SubmitBatch decides the whole
// batch jointly under the configured policy before installing winners in
// arrival order.

// BatchPolicy selects how a pending batch is decided.
type BatchPolicy int

// Batch admission policies.
const (
	// BatchFCFS admits in arrival order while estimates fit — what the
	// online Submit path does implicitly.
	BatchFCFS BatchPolicy = iota
	// BatchDensity admits in descending revenue-per-Mbps order.
	BatchDensity
	// BatchOptimal solves the 0/1 knapsack exactly (revenue maximization
	// over the batch, the [3] broker objective).
	BatchOptimal
)

// String returns the policy name.
func (p BatchPolicy) String() string {
	switch p {
	case BatchFCFS:
		return "fcfs"
	case BatchDensity:
		return "density"
	case BatchOptimal:
		return "knapsack-optimal"
	default:
		return fmt.Sprintf("BatchPolicy(%d)", int(p))
	}
}

// BatchItem pairs a request with its (optional) simulated demand process.
type BatchItem struct {
	Request slice.Request
	Demand  traffic.Demand
}

// SubmitBatch decides the batch jointly under the policy and submits the
// chosen requests through the normal installation path; the others are
// registered as rejected with a batch-policy reason. Returned slices are
// positionally aligned with items. Safe for concurrent use; the budget is
// read from the capacity ledger in one atomic step, and the whole batch is
// made durable with a single WAL fsync at the batch edge instead of one per
// item. It is a thin wrapper over SubmitBatchCtx with a background context.
func (o *Orchestrator) SubmitBatch(items []BatchItem, policy BatchPolicy) ([]*slice.Slice, error) {
	return o.SubmitBatchCtx(context.Background(), items, policy)
}

// SubmitBatchCtx is SubmitBatch with caller-controlled cancellation: an
// already-cancelled context fails fast before any admission work. The batch
// decision and installs then run to completion — a batch is decided jointly,
// so it is never abandoned halfway by a racing cancel.
func (o *Orchestrator) SubmitBatchCtx(ctx context.Context, items []BatchItem, policy BatchPolicy) ([]*slice.Slice, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Budget: remaining estimated radio capacity — one ledger read and one
	// capacity read decide the whole batch's feasibility sweep.
	budget := (o.admissionCap() - o.ledger.Load()).Mbps()
	if budget < 0 {
		budget = 0
	}

	// Every item arrives now, winner or loser.
	now := o.clock.Now()
	reqs := make([]KnapsackRequest, len(items))
	for i, it := range items {
		if err := it.Request.Validate(); err != nil {
			return nil, fmt.Errorf("core: batch item %d: %w", i, err)
		}
		if it.Request.Arrival.IsZero() {
			it.Request.Arrival = now
		}
		reqs[i] = KnapsackRequest{Req: it.Request, LoadMbps: o.admissionEstimate(it.Request.SLA)}
	}

	var chosen []int
	switch policy {
	case BatchDensity:
		chosen, _ = DensityOrderedSubset(reqs, budget)
	case BatchOptimal:
		chosen, _ = MaxRevenueSubset(reqs, budget)
	default:
		chosen, _ = GreedyRevenueSubset(reqs, budget)
	}
	take := make(map[int]bool, len(chosen))
	for _, i := range chosen {
		take[i] = true
	}

	// Apply the decision in strict submission order. WAL records buffer as
	// each item lands and a single commitPersist at the end makes the whole
	// batch durable with one fsync — per-item streams and states are
	// unchanged, only the durability boundary moves to the batch edge.
	//
	// Consecutive losers on the same shard keep that shard's lock across
	// items (curSh); the lock is dropped before any winner installs (the
	// install path takes shard locks itself) and before the deferred fsync.
	var (
		curSh   *shard
		evicted []slice.ID
	)
	flush := func() {
		if curSh != nil {
			curSh.mu.Unlock()
			curSh = nil
		}
		if len(evicted) > 0 {
			o.dropFinished(evicted)
			evicted = evicted[:0]
		}
	}
	defer func() {
		flush()
		o.commitPersist()
	}()

	out := make([]*slice.Slice, len(items))
	for i, it := range items {
		if take[i] {
			flush()
			// Deliberately not threading ctx further: the batch was decided
			// jointly, so once committed it installs to completion — a cancel
			// racing the loop must not strand half the winners installed with
			// the caller never receiving their handles. syncPersist is off:
			// the batch-edge fsync covers the winner's records.
			sl, err := o.submitCtx(context.Background(), reqs[i].Req, it.Demand, false)
			if err != nil {
				return nil, err
			}
			out[i] = sl
			continue
		}
		// Register the loser as a rejected slice so the dashboard shows it.
		id := o.nextID()
		sl, err := slice.New(id, reqs[i].Req)
		if err != nil {
			return nil, err
		}
		subEv := o.publish(EventSubmitted, sl, "")
		if sh := o.shardFor(id); sh != curSh {
			flush()
			sh.mu.Lock()
			curSh = sh
		}
		evicted = append(evicted, o.rejectLocked(sl, slice.Rejectf(slice.RejectRevenuePolicy, "",
			"revenue policy: not selected by %s batch admission", policy), subEv)...)
		out[i] = sl
	}
	return out, nil
}

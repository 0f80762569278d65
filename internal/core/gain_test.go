package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/slice"
)

// shardsOnly is an orchestrator with nothing but its shards: enough for the
// counters and their cross-shard sum.
func shardsOnly(n int) *Orchestrator {
	o := &Orchestrator{shards: make([]*shard, n)}
	for i := range o.shards {
		o.shards[i] = newShard()
	}
	return o
}

// TestGainAccumulatorConcurrentShardUpdates hammers the per-shard totals
// from parallel shards: admits, rejects, penalties and reallocations race
// against totals() readers. The race detector owns the data-race verdict;
// the assertions pin the conservation properties that survive any
// interleaving — matched admit/release pairs return the live totals to
// exactly zero (by arithmetic: the books are integers), money sums land on
// the closed-form totals, and every intermediate read is within the bounds
// the workload allows.
func TestGainAccumulatorConcurrentShardUpdates(t *testing.T) {
	const (
		workers = 8
		perW    = 500
	)
	o := shardsOnly(workers)
	var wg sync.WaitGroup
	// Concurrent readers. A shard's worker releases only what it admitted,
	// so each shard's live totals — and therefore any sum of per-shard reads
	// — stay within [0, everything admitted at once]. Bounded iteration
	// count — an unbounded spin starves the writers under the race detector.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				g := o.totals()
				for _, v := range []slice.Kbps{g.Contracted, g.Allocated} {
					if v < 0 || v > slice.ToKbps(workers*(30+8)) {
						t.Errorf("live total %d kbps outside the workload's bounds", v)
						return
					}
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(a *counters) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				a.admit(10, 30, 20)
				a.reallocate(20, 15)
				a.charge(2)
				a.reject(slice.RejectRadioCapacity)
				a.release(30, 15)
			}
		}(&o.shards[w].counters)
	}
	for w := 0; w < workers; w++ {
		// A second wave whose releases race the first wave's admits on the
		// same shard.
		wg.Add(1)
		go func(a *counters) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				a.admit(1, 8, 8)
				a.release(8, 8)
			}
		}(&o.shards[w].counters)
	}
	wg.Wait()

	g := o.totals()
	const n = workers * perW
	if g.Revenue.EUR() != 11*n {
		t.Errorf("revenue %v, want %v", g.Revenue.EUR(), 11*n)
	}
	if g.Penalty.EUR() != 2*n {
		t.Errorf("penalties %v, want %v", g.Penalty.EUR(), 2*n)
	}
	if g.RejectReasons["radio-capacity"] != n || g.Rejected != n || g.Violations != n || g.Admitted != 2*n {
		t.Errorf("counters %+v, want %d rejections and violations, %d admissions", g, n, 2*n)
	}
	// Every admit was matched by a release: the live totals are exactly
	// zero.
	if g.Contracted != 0 || g.Allocated != 0 {
		t.Errorf("live totals (%v contracted, %v allocated) after matched admit/release, want exact 0",
			g.Contracted, g.Allocated)
	}
}

// TestGainAccumulatorZeroSnap: an emptied registry reads exactly zero even
// for amounts whose float sum would leave an ulp-sized residue.
func TestGainAccumulatorZeroSnap(t *testing.T) {
	o := shardsOnly(2)
	// 0.1 + 0.2 - 0.3 != 0 in binary floating point; in book units it is
	// 100 + 200 - 300, across shards or not.
	o.shards[0].admit(0, 0.1, 0.1)
	o.shards[1].admit(0, 0.2, 0.2)
	o.shards[0].release(0.3, 0.3)
	o.shards[1].release(0, 0)
	if g := o.totals(); g.Contracted != 0 || g.Allocated != 0 {
		t.Fatalf("residue in the live totals: contracted %v, allocated %v", g.Contracted, g.Allocated)
	}
}

// TestLedgerConcurrentInterleaving is the same property for the capacity
// ledger: goroutines reserve, roll and release random entries against a
// limit that makes some reservations fail. Under any interleaving the load
// never exceeds the limit, equals the sum of the held entries at a quiet
// point, and is exactly zero once every entry is released.
func TestLedgerConcurrentInterleaving(t *testing.T) {
	const workers, perW = 8, 2000
	var (
		l     capacityLedger
		limit = slice.ToKbps(100)
		held  [workers]slice.Kbps
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var mine []slice.Kbps
			for i := 0; i < perW; i++ {
				switch k := slice.ToKbps(rng.Float64() * 10); {
				case len(mine) > 0 && rng.Intn(3) == 0:
					l.Release(mine[len(mine)-1])
					mine = mine[:len(mine)-1]
				case len(mine) > 0 && rng.Intn(3) == 0:
					// An epoch roll never grows an entry past its reservation.
					j := rng.Intn(len(mine))
					k = min(k, mine[j])
					l.Update(mine[j], k)
					mine[j] = k
				default:
					if ok, load := l.TryReserve(k, limit); ok {
						mine = append(mine, k)
					} else if load+k <= limit {
						t.Errorf("refused %d kbps at load %d under limit %d", k, load, limit)
					}
				}
				if load := l.Load(); load < 0 || load > limit {
					t.Errorf("ledger load %d kbps outside [0, %d]", load, limit)
					return
				}
			}
			for _, k := range mine {
				held[w] += k
			}
		}(w)
	}
	wg.Wait()
	var sum slice.Kbps
	for _, k := range held {
		sum += k
	}
	if load := l.Load(); load != sum {
		t.Fatalf("ledger %d kbps != Σ held entries %d", load, sum)
	}
	for _, k := range held {
		l.Release(k)
	}
	if load := l.Load(); load != 0 {
		t.Fatalf("ledger holds %d kbps after every release, want exact 0", load)
	}
}

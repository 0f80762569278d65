package core

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/slice"
)

// This file implements the partitioning layer of the concurrent admission
// engine (DESIGN.md §3.4): the slice registry is split into a power-of-two
// number of shards, keyed by an FNV-1a hash of the slice ID, so independent
// tenants' admissions, installs and teardowns serialize only against their
// own shard. Whole-registry passes — the serial head of the control epoch,
// restoration after link failures, the squeeze that shrinks running slices
// for a newcomer — first take the orchestrator's epochMu (serializing those
// passes against each other and against the epoch's phase pipeline) and
// then acquire every shard lock in index order (lockAll), which is
// deadlock-free because single-shard paths never hold more than one shard
// lock at a time. See DESIGN.md §7 for the full phase/locking contract.
//
// The global overbooking budget lives outside the shards in a capacity
// ledger: admission performs a two-phase reservation (reserve the estimated
// load atomically, commit it to the slice's bookkeeping on install success,
// release it on any failure or teardown), so the radio capacity check needs
// no cross-shard iteration on the hot path.

// shard is one partition of the orchestrator's slice registry. Its mutex
// guards the map and the managedSlice bookkeeping of every slice hashed to
// it; its counters (gain.go) are the shard's share of the read plane.
type shard struct {
	mu     sync.Mutex
	slices map[slice.ID]*managedSlice

	// ordered lists the shard's registry entries by ascending submission
	// sequence — the per-shard run the roster merges (see roster),
	// maintained on insert and eviction instead of being collected and
	// sorted every pass. Invariant, under mu: every slices entry has
	// exactly one live element here, elements are strictly ascending in
	// seq, and the evicted ones (m == nil) number dead.
	ordered []orderedEntry
	dead    int
	// changes counts the inserts and evictions that changed ordered, under
	// mu: the roster is stale exactly when the shards' sum of it moved.
	changes uint64

	counters
}

func newShard() *shard {
	return &shard{slices: make(map[slice.ID]*managedSlice)}
}

// shardFor maps a slice ID onto its shard (FNV-1a inlined: this runs on
// every per-slice operation, and hash/fnv would allocate its hasher each
// call).
func (o *Orchestrator) shardFor(id slice.ID) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return o.shards[h&o.shardMask]
}

// lockAll acquires every shard lock in index order. Paired with unlockAll.
// Only whole-registry passes use it — the epoch's serial collection phase,
// the squeeze, restoration — and all of them hold epochMu first; per-slice
// paths lock exactly one shard, so the index order makes deadlock
// impossible. The read plane (Gain, ActiveCount, List) no longer uses it.
func (o *Orchestrator) lockAll() {
	for _, sh := range o.shards {
		sh.mu.Lock()
	}
}

// unlockAll releases every shard lock (reverse order).
func (o *Orchestrator) unlockAll() {
	for i := len(o.shards) - 1; i >= 0; i-- {
		o.shards[i].mu.Unlock()
	}
}

// orderedEntry is one element of a shard's submission-ordered list. The
// sequence is kept beside the pointer so eviction can find its element by
// binary search and tombstone it (m = nil) without shifting the tail.
type orderedEntry struct {
	seq int
	m   *managedSlice
}

// insert registers m in the shard: in the ID map and at its place in the
// submission-ordered list. IDs are issued from one global counter but reach
// their shard after the unlocked stretch between nextID and the shard lock,
// so a concurrent submitter can arrive slightly out of order; the common
// case is an append, the rare one a short walk back from the tail. The
// caller holds sh.mu (or runs in the single-threaded recovery pass).
func (sh *shard) insert(m *managedSlice) {
	m.seq = seqOf(m.s.ID())
	sh.slices[m.s.ID()] = m
	i := len(sh.ordered)
	sh.ordered = append(sh.ordered, orderedEntry{})
	for i > 0 && sh.ordered[i-1].seq > m.seq {
		sh.ordered[i] = sh.ordered[i-1]
		i--
	}
	sh.ordered[i] = orderedEntry{seq: m.seq, m: m}
	sh.changes++
}

// evict removes a finished slice from the shard and returns its bookkeeping
// (nil when the ID is unknown). The ordered-list element is tombstoned, and
// the list is compacted once tombstones outnumber live elements — each
// compaction pays for at least as many evictions as elements it moves, so
// eviction is amortised O(1) after the O(log n) search. The caller holds
// sh.mu.
func (sh *shard) evict(id slice.ID) *managedSlice {
	m, ok := sh.slices[id]
	if !ok {
		return nil
	}
	delete(sh.slices, id)
	sh.changes++
	i, found := slices.BinarySearchFunc(sh.ordered, m.seq, func(e orderedEntry, seq int) int {
		return cmp.Compare(e.seq, seq)
	})
	if found && sh.ordered[i].m != nil {
		sh.ordered[i].m = nil
		sh.dead++
	}
	if sh.dead > 32 && 2*sh.dead > len(sh.ordered) {
		live := sh.ordered[:0]
		for _, e := range sh.ordered {
			if e.m != nil {
				live = append(live, e)
			}
		}
		clear(sh.ordered[len(live):]) // drop the moved elements' pointers
		sh.ordered = live
		sh.dead = 0
	}
	return m
}

// roster is the whole registry in global submission order, merged from
// the shards' ordered lists and kept between whole-registry passes. Every
// loop that samples randomness or resizes reservations must use this order
// so that runs are bit-reproducible under a fixed seed (map and shard
// iteration order are not). It is guarded by holding every shard lock, and
// rebuilt only when a shard inserted or evicted since the last build: the
// steady-state epoch reads it as it stands.
type roster struct {
	slices  []*managedSlice
	changes uint64 // the shards' summed changes counters at the last build
	// heap is the rebuild's k-way merge: the unvisited tail of each shard's
	// list (element 0 live), as a min-heap on that element's seq.
	heap [][]orderedEntry
}

// rosterAllLocked returns every registered slice in submission order. The
// caller holds every shard lock for as long as it reads the result, and
// inserts or evicts nothing meanwhile; the next call may reuse the array.
func (o *Orchestrator) rosterAllLocked() []*managedSlice {
	r := &o.roster
	var changes uint64
	for _, sh := range o.shards {
		changes += sh.changes
	}
	if changes != r.changes {
		r.rebuild(o.shards)
		r.changes = changes
	}
	return r.slices
}

// rebuild merges the shards' lists into r.slices.
func (r *roster) rebuild(shards []*shard) {
	clear(r.slices) // drop evicted slices' pointers
	r.slices = r.slices[:0]
	r.heap = r.heap[:0]
	for _, sh := range shards {
		if rest := skipDead(sh.ordered); len(rest) > 0 {
			r.heap = append(r.heap, rest)
		}
	}
	for i := len(r.heap)/2 - 1; i >= 0; i-- {
		r.siftDown(i)
	}
	for len(r.heap) > 0 {
		r.slices = append(r.slices, r.heap[0][0].m)
		if rest := skipDead(r.heap[0][1:]); len(rest) > 0 {
			r.heap[0] = rest
		} else {
			last := len(r.heap) - 1
			r.heap[0] = r.heap[last]
			r.heap[last] = nil
			r.heap = r.heap[:last]
		}
		r.siftDown(0)
	}
}

// skipDead drops leading tombstones.
func skipDead(rest []orderedEntry) []orderedEntry {
	for len(rest) > 0 && rest[0].m == nil {
		rest = rest[1:]
	}
	return rest
}

func (r *roster) siftDown(i int) {
	h := r.heap
	for {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if h[c][0].seq < h[least][0].seq {
				least = c
			}
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// capacityLedger is the shared radio overbooking budget: the running sum of
// every live slice's estimated load (the forecast provisioning target once
// observed, the a-priori admission estimate before), in Kbps. Admission
// reserves against it in one atomic step — phase one of the two-phase
// reservation — and installation failure or teardown releases it, so
// concurrent admissions on different shards never oversell the same
// capacity. Integer adds commute and invert exactly: the load is the sum of
// the live entries whatever order the shards applied them in.
type capacityLedger struct{ load atomic.Int64 }

// Load returns the current estimated radio load.
func (l *capacityLedger) Load() slice.Kbps { return slice.Kbps(l.load.Load()) }

// TryReserve atomically adds k if the total stays within limit. It returns
// whether the reservation was taken and the load seen at decision time (for
// the rejection message).
func (l *capacityLedger) TryReserve(k, limit slice.Kbps) (bool, slice.Kbps) {
	for {
		cur := l.load.Load()
		if slice.Kbps(cur)+k > limit {
			return false, slice.Kbps(cur)
		}
		if l.load.CompareAndSwap(cur, cur+int64(k)) {
			return true, slice.Kbps(cur) + k
		}
	}
}

// Release subtracts a previously reserved load.
func (l *capacityLedger) Release(k slice.Kbps) { l.load.Add(-int64(k)) }

// Update replaces a slice's ledger entry (epoch reprovisioning); an
// unchanged entry costs no atomic add.
func (l *capacityLedger) Update(old, new slice.Kbps) {
	if new != old {
		l.load.Add(int64(new - old))
	}
}

// finishedHistory bounds how many finished (terminated/rejected) slices the
// registry retains, globally across shards, so a long-running daemon stays
// flat. It orders entries by submission sequence — the oldest finished
// slices are evicted first, exactly the pre-sharding pruning policy.
type finishedHistory struct {
	mu    sync.Mutex
	limit int
	ids   []slice.ID // ascending submission sequence
}

// Push records a newly finished slice and returns the IDs evicted beyond the
// limit. The caller deletes those from their shards — after releasing its
// own shard lock (dropFinished) or directly when it already holds every
// shard lock (dropFinishedAllLocked); Push itself takes only the history
// mutex, so it is safe under any shard lock.
func (h *finishedHistory) Push(id slice.ID) []slice.ID {
	h.mu.Lock()
	defer h.mu.Unlock()
	seq := seqOf(id)
	i := sort.Search(len(h.ids), func(i int) bool { return seqOf(h.ids[i]) >= seq })
	h.ids = append(h.ids, "")
	copy(h.ids[i+1:], h.ids[i:])
	h.ids[i] = id
	excess := len(h.ids) - h.limit
	if excess <= 0 {
		return nil
	}
	evicted := append([]slice.ID(nil), h.ids[:excess]...)
	h.ids = append(h.ids[:0], h.ids[excess:]...)
	return evicted
}

// dropFinished deletes evicted finished slices from their shards, locking
// one shard at a time. Callers must hold no shard lock.
func (o *Orchestrator) dropFinished(ids []slice.ID) {
	for _, id := range ids {
		sh := o.shardFor(id)
		sh.mu.Lock()
		o.dropTelemetry(sh.evict(id))
		sh.mu.Unlock()
	}
}

// dropFinishedAllLocked is dropFinished for callers already holding every
// shard lock (restoration passes).
func (o *Orchestrator) dropFinishedAllLocked(ids []slice.ID) {
	for _, id := range ids {
		o.dropTelemetry(o.shardFor(id).evict(id))
	}
}

// dropTelemetry removes an evicted slice's per-slice series from the
// monitoring store: the dashboard charts slices it can still list, and a
// churning daemon must not keep a ring for every slice it ever ran.
// Slices that never saw an epoch hold no series and cost nothing here.
func (o *Orchestrator) dropTelemetry(m *managedSlice) {
	if m == nil || m.series == nil {
		return
	}
	o.store.Drop(m.series.Names()...)
}

package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/testbed"
	"repro/internal/traffic"
)

// activeInOrder is what epoch P1 must sample: the registry's Active slices
// in submission order, from the collect-and-sort reference.
func activeInOrder(o *Orchestrator) []*managedSlice {
	o.lockAll()
	defer o.unlockAll()
	var out []*managedSlice
	for _, m := range collectAndSortAllLocked(o) {
		if m.s.State() == slice.StateActive {
			out = append(out, m)
		}
	}
	return out
}

// sampledIDs runs one epoch and returns the IDs of the slices it sampled,
// after requiring them to be exactly want, in order.
func sampledIDs(t *testing.T, o *Orchestrator, want []*managedSlice, when string) []slice.ID {
	t.Helper()
	o.RunEpoch()
	var ids []slice.ID
	for i, it := range o.ep.items {
		if i >= len(want) || it.m != want[i] {
			t.Fatalf("%s: epoch item %d is %s, want the reference's (%d active)", when, i, it.m.s.ID(), len(want))
		}
		ids = append(ids, it.m.s.ID())
	}
	if len(ids) != len(want) {
		t.Fatalf("%s: epoch sampled %d slices, %d are active", when, len(ids), len(want))
	}
	return ids
}

// TestEpochRosterFollowsChurn: the epoch reads the cached roster, rebuilt
// only when a shard inserted or evicted. A steady epoch must reuse it as it
// stands, without allocating; after a submit, and after deletes that push
// the finished history past HistoryLimit so shards evict, the next epoch
// must sample exactly the Active slices of the collect-and-sort reference,
// in order — at 1 and at 16 shards, which must sample the same IDs.
func TestEpochRosterFollowsChurn(t *testing.T) {
	run := func(t *testing.T, shards int) [][]slice.ID {
		s := sim.NewSimulator(3)
		tb, err := testbed.New(testbed.Config{ENBs: 4, MaxPLMNs: 128, CoreHosts: 16, EdgeHosts: 8}, s.Rand())
		if err != nil {
			t.Fatal(err)
		}
		const historyLimit = 4
		o := New(Config{
			Overbook:            true,
			Risk:                0.9,
			AdmissionLoadFactor: 0.5,
			PLMNLimit:           128,
			Shards:              shards,
			HistoryLimit:        historyLimit,
		}, tb, s, monitor.NewStore(256))
		submit := func(i int) slice.ID {
			t.Helper()
			sl, err := o.Submit(smallReq(fmt.Sprintf("t-%d", i)), traffic.NewConstant(1, 0.2, s.Rand()))
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			if sl.State() == slice.StateRejected {
				t.Fatalf("submit %d rejected: %s", i, sl.Reason())
			}
			return sl.ID()
		}
		var ids []slice.ID
		for i := 0; i < 40; i++ {
			ids = append(ids, submit(i))
		}
		s.RunFor(15 * time.Second) // install stages + vEPC boot

		var sampled [][]slice.ID
		epoch := func(when string) {
			t.Helper()
			sampled = append(sampled, sampledIDs(t, o, activeInOrder(o), when))
			checkOrderedRegistry(t, o, when)
		}
		epoch("first epoch")

		// Steady state: nothing inserted or evicted, so the roster is read
		// as it stands — same array, no rebuild, no allocation.
		before := o.roster.changes
		first := &o.roster.slices[0]
		epoch("steady epoch")
		if o.roster.changes != before || &o.roster.slices[0] != first {
			t.Fatal("a steady epoch rebuilt the roster")
		}
		o.lockAll()
		allocs := testing.AllocsPerRun(10, func() { o.rosterAllLocked() })
		// A mark planted in the cached roster survives a read: nothing is
		// merged again while no shard changed.
		r := o.roster.slices
		mark := r[1]
		r[0], r[1] = r[1], r[0]
		kept := o.rosterAllLocked()[0] == mark
		r[0], r[1] = r[1], r[0]
		o.unlockAll()
		if allocs != 0 {
			t.Fatalf("reading an unchanged roster allocates %v times", allocs)
		}
		if !kept {
			t.Fatal("reading an unchanged roster merged the shard lists again")
		}

		// One submit: the new slice is installing at the next epoch and
		// active, last in the roster, at the one after the install.
		ids = append(ids, submit(40))
		epoch("epoch after a submit")
		s.RunFor(15 * time.Second)
		epoch("epoch after the new slice activated")
		if got := sampled[len(sampled)-1]; got[len(got)-1] != ids[40] {
			t.Fatalf("the new slice %s is not sampled last: %v", ids[40], got[len(got)-5:])
		}

		// Deletes past the history limit: the oldest finished slices leave
		// their shards.
		registered := func() int {
			n := 0
			for _, sh := range o.shards {
				sh.mu.Lock()
				n += len(sh.slices)
				sh.mu.Unlock()
			}
			return n
		}
		n0 := registered()
		for _, k := range []int{3, 17, 0, 39, 8, 22, 31} {
			if err := o.Delete(ids[k]); err != nil {
				t.Fatal(err)
			}
		}
		if evicted := n0 - registered(); evicted != 7-historyLimit {
			t.Fatalf("%d slices left their shards, want %d", evicted, 7-historyLimit)
		}
		epoch("epoch after deletes and evictions")
		if o.roster.changes == before {
			t.Fatal("the roster was not rebuilt after inserts and evictions")
		}
		epoch("steady epoch after the churn")
		return sampled
	}
	one := run(t, 1)
	sixteen := run(t, 16)
	for k := range one {
		if !slices.Equal(one[k], sixteen[k]) {
			t.Fatalf("epoch %d sampled %v at 1 shard, %v at 16", k, one[k], sixteen[k])
		}
	}
}

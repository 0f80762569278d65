package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/slice"
	"repro/internal/testbed"
)

// collectAndSortAllLocked is the registry ordering the maintained per-shard
// lists replaced: collect every map entry and sort by the sequence parsed
// from the ID. Kept as the reference the roster must reproduce. Caller
// holds all shard locks.
func collectAndSortAllLocked(o *Orchestrator) []*managedSlice {
	var out []*managedSlice
	for _, sh := range o.shards {
		for _, m := range sh.slices {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return seqOf(out[i].s.ID()) < seqOf(out[j].s.ID()) })
	return out
}

// checkOrderedRegistry quiesces the registry like a whole-registry pass does
// (passMu, then every shard lock), then requires the roster to equal
// the collect-and-sort reference element for element and every shard to
// satisfy the ordered-list invariant.
func checkOrderedRegistry(t *testing.T, o *Orchestrator, when string) {
	t.Helper()
	o.passMu.Lock()
	defer o.passMu.Unlock()
	o.lockAll()
	defer o.unlockAll()
	for k, sh := range o.shards {
		live, dead, last := 0, 0, -1
		for _, e := range sh.ordered {
			if e.seq <= last {
				t.Errorf("%s: shard %d list not strictly ascending: %d after %d", when, k, e.seq, last)
			}
			last = e.seq
			if e.m == nil {
				dead++
				continue
			}
			live++
			if e.m.seq != e.seq || sh.slices[e.m.s.ID()] != e.m {
				t.Errorf("%s: shard %d element %d does not match the ID map", when, k, e.seq)
			}
		}
		if live != len(sh.slices) || dead != sh.dead {
			t.Errorf("%s: shard %d holds %d live / %d dead elements, map %d / counter %d",
				when, k, live, dead, len(sh.slices), sh.dead)
		}
	}
	want := collectAndSortAllLocked(o)
	got := o.rosterAllLocked()
	for i, m := range got {
		if i >= len(want) || want[i] != m {
			// Errorf, not Fatalf: the concurrent part calls this off the
			// test goroutine.
			t.Errorf("%s: roster element %d is %s, reference disagrees (reference has %d)", when, i, m.s.ID(), len(want))
			return
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: roster holds %d slices, reference %d", when, len(got), len(want))
	}
}

// TestOrderedRegistryEqualsCollectAndSort is the equivalence proof of the
// maintained registry order, in two parts. The first drives the shard lists
// directly with a seeded mix of out-of-order arrivals and evictions (enough
// of them to cross the compaction threshold many times). The second runs
// the live API on 16 shards — concurrent submitters race between taking an
// ID and reaching their shard, which is exactly how out-of-order arrival
// happens in production — with deletes, history evictions and link-failure
// restoration passes, while a checker quiesces the registry and compares.
// Run with -race.
func TestOrderedRegistryEqualsCollectAndSort(t *testing.T) {
	t.Run("seeded", func(t *testing.T) {
		o := concurrentEnv(t, 16)
		rng := rand.New(rand.NewSource(12))
		var present []slice.ID
		next := 1
		for round := 0; round < 60; round++ {
			// A window of fresh IDs arrives shuffled: within a shard, later
			// sequences land before earlier ones.
			window := rng.Perm(1 + rng.Intn(48))
			for _, off := range window {
				id := slice.ID(fmt.Sprintf("s-%d", next+off))
				s, err := slice.New(id, smallReq("seeded"))
				if err != nil {
					t.Fatal(err)
				}
				sh := o.shardFor(id)
				sh.insert(&managedSlice{s: s, sh: sh})
				present = append(present, id)
			}
			next += len(window)
			// Evict a random share, oldest-biased like the history does.
			for n := rng.Intn(len(present)/2 + 1); n > 0; n-- {
				k := rng.Intn(len(present))
				if rng.Intn(3) > 0 {
					k = rng.Intn(k + 1)
				}
				id := present[k]
				present = append(present[:k], present[k+1:]...)
				if m := o.shardFor(id).evict(id); m == nil || m.s.ID() != id {
					t.Fatalf("evict %s returned %v", id, m)
				}
			}
			if m := o.shardFor("s-0").evict("s-0"); m != nil {
				t.Fatal("evicting an unknown ID returned a slice")
			}
			checkOrderedRegistry(t, o, fmt.Sprintf("round %d", round))
		}
		if len(present) == 0 {
			t.Fatal("nothing left to compare")
		}
		// Only compaction shrinks a list: had none run, the lists would
		// still hold one element per insert.
		held := 0
		for _, sh := range o.shards {
			held += len(sh.ordered)
		}
		if held >= next-1 {
			t.Fatalf("lists hold %d elements after %d inserts: compaction never ran", held, next-1)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		o := concurrentEnv(t, 16)
		const workers, perWorker = 8, 60
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				var mine []slice.ID
				for i := 0; i < perWorker; i++ {
					sl, err := o.Submit(smallReq(fmt.Sprintf("t-%d", w)), nil)
					if err != nil {
						t.Errorf("submit: %v", err)
						return
					}
					if sl.State() != slice.StateRejected {
						mine = append(mine, sl.ID())
					}
					// Delete a random earlier slice about half the time; the
					// restoration pass may have dropped (and the history
					// evicted) it first.
					if len(mine) > 0 && rng.Intn(2) == 0 {
						k := rng.Intn(len(mine))
						id := mine[k]
						mine = append(mine[:k], mine[k+1:]...)
						if err := o.Delete(id); err != nil &&
							!strings.Contains(err.Error(), "already") &&
							!strings.Contains(err.Error(), "unknown") {
							t.Errorf("delete: %v", err)
						}
					}
				}
			}(w)
		}
		stop := make(chan struct{})
		var bg sync.WaitGroup
		bg.Add(1)
		go func() { // the checker, with a squeeze-style whole-registry walk
			defer bg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					checkOrderedRegistry(t, o, fmt.Sprintf("concurrent check %d", i))
					o.RunEpoch()
				}
			}
		}()
		bg.Add(1)
		go func() { // restoration passes evict under every shard lock
			defer bg.Done()
			for {
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
		checkOrderedRegistry(t, o, "final")
		g := o.Gain()
		if got := g.Admitted + g.Rejected; got != workers*perWorker {
			t.Fatalf("admitted %d + rejected %d = %d, want %d", g.Admitted, g.Rejected, got, workers*perWorker)
		}
		// Everything is quiet, so the registry is exactly the live slices plus
		// at most HistoryLimit finished ones. Live, not active: under the
		// realtime clock most survivors are still installing.
		list := o.List()
		live := 0
		for _, sn := range list {
			switch sn.State {
			case "admitted", "installing", "active", "reconfiguring":
				live++
			}
		}
		if len(list) > live+o.cfg.HistoryLimit {
			t.Fatalf("registry holds %d slices, %d of them live: history evictions did not run", len(list), live)
		}
	})
}

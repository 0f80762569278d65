package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/slice"
)

// scanAndSortPage is the listing selectPage replaced, kept as the reference
// it must reproduce: range every shard's map, filter on the snapshot's API
// fields, sort the matches by the sequence parsed from the ID, cut the page.
func scanAndSortPage(t *testing.T, o *Orchestrator, opts ListOptions) ListPage {
	t.Helper()
	after := 0
	if opts.PageToken != "" {
		var err error
		if after, err = strconv.Atoi(opts.PageToken); err != nil {
			t.Fatal(err)
		}
	}
	var matches []slice.Snapshot
	for _, sh := range o.shards {
		sh.mu.Lock()
		for _, m := range sh.slices {
			snap := m.s.Snapshot()
			if seqOf(snap.ID) > after &&
				(opts.Tenant == "" || snap.Tenant == opts.Tenant) &&
				(opts.State == "" || snap.State == opts.State) &&
				(opts.RejectCode == "" || snap.RejectCode == opts.RejectCode) {
				matches = append(matches, snap)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(matches, func(i, j int) bool { return seqOf(matches[i].ID) < seqOf(matches[j].ID) })
	page := ListPage{Slices: matches}
	if opts.Limit > 0 && len(matches) > opts.Limit {
		page.Slices = matches[:opts.Limit]
		page.NextPageToken = strconv.Itoa(seqOf(matches[opts.Limit-1].ID))
	}
	return page
}

// TestSelectPageEqualsScanAndSort drives the shard lists directly — shuffled
// arrivals, slices in every lifecycle state, enough evictions to leave
// tombstones and trigger compactions — and requires both projections of the
// ordered-index selection to equal the scan-and-sort reference for seeded
// random queries: same slices, same order, same token; fragments equal to
// the stdlib encoding of the snapshots.
func TestSelectPageEqualsScanAndSort(t *testing.T) {
	o := concurrentEnv(t, 16)
	rng := rand.New(rand.NewSource(14))
	now := time.Unix(1_700_000_000, 0).UTC()
	tenants := []string{"t-0", "t-1", "t-2", "t-3"}
	states := []string{"", "pending", "rejected", "admitted", "installing", "active", "terminated", "bogus"}
	codes := []slice.RejectCode{"", "", slice.RejectRadioCapacity, slice.RejectLatencyUnmeetable}
	var present []slice.ID
	next := 1
	for round := 0; round < 24; round++ {
		window := rng.Perm(1 + rng.Intn(64))
		for _, off := range window {
			id := slice.ID(fmt.Sprintf("s-%d", next+off))
			s, err := slice.New(id, smallReq(tenants[rng.Intn(len(tenants))]))
			if err != nil {
				t.Fatal(err)
			}
			// Stop somewhere along the lifecycle.
			steps := []func() error{s.Admit, s.BeginInstall, func() error { return s.Activate(now) }, func() error { return s.Terminate("expired") }}
			if rng.Intn(4) == 0 {
				steps = []func() error{func() error {
					return s.Reject(&slice.RejectionCause{Code: codes[2+rng.Intn(2)], Detail: "no"})
				}}
			}
			for _, step := range steps[:rng.Intn(len(steps)+1)] {
				if err := step(); err != nil {
					t.Fatal(err)
				}
			}
			sh := o.shardFor(id)
			sh.insert(&managedSlice{s: s, sh: sh})
			present = append(present, id)
		}
		next += len(window)
		for n := rng.Intn(len(present)/2 + 1); n > 0; n-- {
			k := rng.Intn(len(present))
			o.shardFor(present[k]).evict(present[k])
			present = append(present[:k], present[k+1:]...)
		}

		for q := 0; q < 40; q++ {
			opts := ListOptions{
				State:      states[rng.Intn(len(states))],
				RejectCode: codes[rng.Intn(len(codes))],
				Limit:      []int{0, 1, 2, 7, 50, 5000}[rng.Intn(6)],
			}
			if rng.Intn(2) == 0 {
				opts.Tenant = tenants[rng.Intn(len(tenants))]
			}
			if rng.Intn(2) == 0 {
				opts.PageToken = strconv.Itoa(rng.Intn(next + 2))
			}
			want := scanAndSortPage(t, o, opts)
			got, err := o.ListFiltered(opts)
			if err != nil {
				t.Fatal(err)
			}
			wire, err := o.ListFragments(opts)
			if err != nil {
				t.Fatal(err)
			}
			if got.NextPageToken != want.NextPageToken || wire.NextPageToken != want.NextPageToken {
				t.Fatalf("round %d %+v: tokens %q / %q, reference %q", round, opts, got.NextPageToken, wire.NextPageToken, want.NextPageToken)
			}
			if len(got.Slices) != len(want.Slices) || len(wire.Slices) != len(want.Slices) {
				t.Fatalf("round %d %+v: %d snapshots / %d fragments, reference %d", round, opts, len(got.Slices), len(wire.Slices), len(want.Slices))
			}
			for i, snap := range want.Slices {
				ref, err := json.Marshal(snap)
				if err != nil {
					t.Fatal(err)
				}
				if got.Slices[i].ID != snap.ID || !bytes.Equal(wire.Slices[i], ref) {
					t.Fatalf("round %d %+v element %d: snapshot %s, fragment %s, reference %s", round, opts, i, got.Slices[i].ID, wire.Slices[i], ref)
				}
			}
		}
	}
	if _, err := o.ListFragments(ListOptions{PageToken: "-3"}); err == nil {
		t.Fatal("negative page token accepted")
	}
}

// TestListPageUnderTransitions: pages cut while slices are admitted, torn
// down, evicted and measured never contradict their own query — every
// snapshot and every fragment carries the state asked for — stay within the
// limit and in strictly ascending submission order. Run with -race.
func TestListPageUnderTransitions(t *testing.T) {
	o := concurrentEnv(t, 16)
	const workers, perWorker = 6, 80
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sl, err := o.Submit(smallReq(fmt.Sprintf("t-%d", w%2)), nil)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if i%3 != 0 && sl.State() != slice.StateRejected {
					if err := o.Delete(sl.ID()); err != nil &&
						!strings.Contains(err.Error(), "already") && !strings.Contains(err.Error(), "unknown") {
						t.Errorf("delete: %v", err)
					}
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var bg sync.WaitGroup
	for r, state := range []string{"installing", "terminated", ""} {
		bg.Add(1)
		go func(r int, state string) {
			defer bg.Done()
			opts := ListOptions{State: state, Limit: 8}
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				if n%16 == 0 {
					opts.PageToken = "" // walk from the top again
				}
				var ids []slice.ID
				var states []string
				if (n+r)%2 == 0 {
					page, err := o.ListFiltered(opts)
					if err != nil {
						t.Errorf("list: %v", err)
						return
					}
					for _, snap := range page.Slices {
						ids, states = append(ids, snap.ID), append(states, snap.State)
					}
					opts.PageToken = page.NextPageToken
				} else {
					page, err := o.ListFragments(opts)
					if err != nil {
						t.Errorf("list fragments: %v", err)
						return
					}
					for _, frag := range page.Slices {
						var snap slice.Snapshot
						if err := json.Unmarshal(frag, &snap); err != nil {
							t.Errorf("fragment does not decode: %v (%s)", err, frag)
							return
						}
						ids, states = append(ids, snap.ID), append(states, snap.State)
					}
					opts.PageToken = page.NextPageToken
				}
				if len(ids) > opts.Limit {
					t.Errorf("page of %d over limit %d", len(ids), opts.Limit)
				}
				for i, id := range ids {
					if state != "" && states[i] != state {
						t.Errorf("query state=%s returned %s in state %s", state, id, states[i])
					}
					if i > 0 && seqOf(id) <= seqOf(ids[i-1]) {
						t.Errorf("page out of order: %v", ids)
					}
				}
				if t.Failed() {
					return
				}
			}
		}(r, state)
	}
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				o.RunEpoch()
			}
		}
	}()
	wg.Wait()
	close(stop)
	bg.Wait()
}

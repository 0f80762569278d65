package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/slice"
)

// The listing half of the read plane (DESIGN.md §7.3): one page-selection
// routine over the shards' maintained submission order, and two projections
// of the page it selects — snapshots (ListFiltered) and cached wire fragments
// (ListFragments).

// List returns snapshots of every slice, sorted by ID sequence. It is a thin
// wrapper over ListFiltered with zero options.
func (o *Orchestrator) List() []slice.Snapshot {
	page, _ := o.ListFiltered(ListOptions{}) // zero options never error
	return page.Slices
}

// ListOptions filters and paginates ListFiltered. Zero values select
// everything in one page.
type ListOptions struct {
	// State keeps only slices in this lifecycle state (API string form,
	// e.g. "active", "rejected"); "" keeps all.
	State string
	// Tenant keeps only this tenant's slices; "" keeps all.
	Tenant string
	// RejectCode keeps only slices rejected with this taxonomy code; ""
	// keeps all.
	RejectCode slice.RejectCode
	// Limit caps the page size (0 = unlimited).
	Limit int
	// PageToken resumes a paginated listing: pass the previous page's
	// NextPageToken. Tokens are stable across calls (they encode the last
	// returned slice's submission sequence).
	PageToken string
}

// ErrBadPageToken is wrapped by the listing calls when ListOptions.PageToken
// is not a token they issued — the caller's mistake; any other error is an
// encoding failure.
var ErrBadPageToken = errors.New("core: bad page token")

// ListPage is one page of filtered slice snapshots.
type ListPage struct {
	Slices []slice.Snapshot `json:"slices"`
	// NextPageToken is set when more matching slices remain; pass it as
	// ListOptions.PageToken to continue.
	NextPageToken string `json:"next_page_token,omitempty"`
}

// FragmentPage is ListPage in wire form: Slices[i] is the JSON encoding of
// the snapshot ListFiltered would have returned at i. The fragments are the
// slices' cached encodings, shared with every other reader: read-only.
type FragmentPage struct {
	Slices        [][]byte
	NextPageToken string
}

// pageSelection is what selectPage decided: the slices of the page in
// submission order, the filter they matched (re-checked when each is cut),
// and the token of the next page.
type pageSelection struct {
	slices []*slice.Slice
	filter slice.Filter
	next   string
}

// selectPage picks the page opts asks for. Per shard, under that shard's
// lock only, it binary-searches the maintained order past the page token and
// collects matching entries until it holds Limit+1 of them or passes the
// Limit+1-th smallest sequence found so far — nothing beyond that can reach
// the page — then merges the run into the running selection. The first Limit
// entries are the page; a Limit+1-th proves another page exists. A bounded
// page therefore costs O(shards × Limit) whatever the registry holds — no
// scan, no sort. The selection is not one atomic cut across shards: a
// transition committed on another shard while the selection walks may or may
// not be seen. Pagination is keyset-based (the token encodes the last
// selected submission sequence), so a slice admitted behind the cursor is
// picked up by a later page, never duplicated.
func (o *Orchestrator) selectPage(opts ListOptions) (pageSelection, error) {
	after := 0
	if opts.PageToken != "" {
		n, err := strconv.Atoi(opts.PageToken)
		if err != nil || n < 0 {
			return pageSelection{}, fmt.Errorf("%w %q", ErrBadPageToken, opts.PageToken)
		}
		after = n
	}
	sel := pageSelection{filter: slice.NewFilter(opts.Tenant, opts.State, opts.RejectCode)}
	want := opts.Limit + 1 // entries worth keeping; unbounded when Limit is 0
	full := func(run []orderedEntry) bool { return opts.Limit > 0 && len(run) == want }

	// best is the smallest matching entries found so far, ascending; run and
	// spare are its scratch. None outgrows want entries when the page is
	// bounded, so a modest limit takes one allocation for the three; an
	// unbounded or huge one grows by append.
	var best, run, spare []orderedEntry
	if opts.Limit > 0 && opts.Limit < 1024 {
		buf := make([]orderedEntry, 3*want)
		best, run, spare = buf[:0:want], buf[want:want:2*want], buf[2*want:2*want]
	}
	for _, sh := range o.shards {
		run = run[:0]
		sh.mu.Lock()
		i, found := slices.BinarySearchFunc(sh.ordered, after, func(e orderedEntry, seq int) int {
			return cmp.Compare(e.seq, seq)
		})
		if found {
			i++
		}
		for _, e := range sh.ordered[i:] {
			if full(run) || full(best) && e.seq > best[want-1].seq {
				break
			}
			if e.m != nil && e.m.s.Matches(sel.filter) {
				run = append(run, e)
			}
		}
		sh.mu.Unlock()

		// Merge run into best, keeping at most want entries.
		merged := spare[:0]
		for a, b := best, run; (len(a) > 0 || len(b) > 0) && !full(merged); {
			if len(b) == 0 || len(a) > 0 && a[0].seq < b[0].seq {
				merged, a = append(merged, a[0]), a[1:]
			} else {
				merged, b = append(merged, b[0]), b[1:]
			}
		}
		best, spare = merged, best
	}

	if full(best) {
		best = best[:opts.Limit]
		sel.next = strconv.Itoa(best[opts.Limit-1].seq)
	}
	sel.slices = make([]*slice.Slice, len(best))
	for i, e := range best {
		sel.slices[i] = e.m.s
	}
	return sel, nil
}

// ListFiltered returns the snapshots matching opts, sorted by submission
// sequence (see selectPage for what a page guarantees). Each snapshot is cut
// in the same critical section that re-checks the state and reject-code
// filters, so a slice that transitioned out of the query after it was
// selected is dropped (the page may come back short) — never returned with a
// snapshot contradicting the query.
func (o *Orchestrator) ListFiltered(opts ListOptions) (ListPage, error) {
	sel, err := o.selectPage(opts)
	if err != nil {
		return ListPage{}, err
	}
	page := ListPage{Slices: make([]slice.Snapshot, 0, len(sel.slices)), NextPageToken: sel.next}
	for _, s := range sel.slices {
		if snap, ok := s.SnapshotIf(sel.filter); ok {
			page.Slices = append(page.Slices, snap)
		}
	}
	return page, nil
}

// ListFragments is ListFiltered for the wire: the same page, each slice as
// its cached JSON encoding (slice.SnapshotJSON) — a slice is encoded again
// only after it changed, however often it is listed.
func (o *Orchestrator) ListFragments(opts ListOptions) (FragmentPage, error) {
	sel, err := o.selectPage(opts)
	if err != nil {
		return FragmentPage{}, err
	}
	page := FragmentPage{Slices: make([][]byte, 0, len(sel.slices)), NextPageToken: sel.next}
	for _, s := range sel.slices {
		frag, err := s.SnapshotJSONIf(sel.filter)
		if err != nil {
			return FragmentPage{}, err
		}
		if frag != nil {
			page.Slices = append(page.Slices, frag)
		}
	}
	return page, nil
}

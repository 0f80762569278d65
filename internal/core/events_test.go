package core

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/testbed"
)

func eventEnv(t *testing.T, cfg Config) (*Orchestrator, *sim.Simulator) {
	t.Helper()
	s := sim.NewSimulator(1)
	tb, err := testbed.New(testbed.Default(), s.Rand())
	if err != nil {
		t.Fatal(err)
	}
	return New(cfg, tb, s, monitor.NewStore(256)), s
}

func eventReq(tenant string) slice.Request {
	return slice.Request{
		Tenant: tenant,
		SLA: slice.SLA{
			ThroughputMbps: 20, MaxLatencyMs: 30, Duration: time.Hour,
			PriceEUR: 50, PenaltyEUR: 1,
		},
	}
}

// collect drains ch until it has n events or the deadline passes.
func collect(t *testing.T, ch <-chan Event, n int) []Event {
	t.Helper()
	var out []Event
	deadline := time.After(5 * time.Second)
	for len(out) < n {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatalf("stream closed after %d/%d events", len(out), n)
			}
			out = append(out, ev)
		case <-deadline:
			t.Fatalf("timeout after %d/%d events", len(out), n)
		}
	}
	return out
}

// TestEventLifecycleSequence pins the ordered event sequence of one full
// slice lifecycle: submitted, admitted, installed, deleted — with strictly
// increasing sequence numbers and post-transition states.
func TestEventLifecycleSequence(t *testing.T) {
	orch, s := eventEnv(t, Config{Overbook: true, Risk: 0.9})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := orch.Watch(ctx, WatchOptions{})

	sl, err := orch.Submit(eventReq("acme"), nil)
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(15 * time.Second)
	if err := orch.Delete(sl.ID()); err != nil {
		t.Fatal(err)
	}

	got := collect(t, ch, 4)
	wantTypes := []EventType{EventSubmitted, EventAdmitted, EventInstalled, EventDeleted}
	wantStates := []string{"pending", "installing", "active", "terminated"}
	for i, ev := range got {
		if ev.Type != wantTypes[i] {
			t.Fatalf("event %d: type %s, want %s (%+v)", i, ev.Type, wantTypes[i], got)
		}
		if ev.State != wantStates[i] {
			t.Fatalf("event %d: state %s, want %s", i, ev.State, wantStates[i])
		}
		if ev.Slice != sl.ID() || ev.Tenant != "acme" {
			t.Fatalf("event %d: slice %s tenant %s", i, ev.Slice, ev.Tenant)
		}
		if ev.Seq != int64(i+1) {
			t.Fatalf("event %d: seq %d, want %d", i, ev.Seq, i+1)
		}
		if ev.Time.IsZero() {
			t.Fatalf("event %d: zero time", i)
		}
	}
}

// TestEventRejectedCarriesCode checks rejections publish the typed cause.
func TestEventRejectedCarriesCode(t *testing.T) {
	orch, _ := eventEnv(t, Config{Overbook: true, Risk: 0.9})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := orch.Watch(ctx, WatchOptions{Types: []EventType{EventRejected}})

	req := eventReq("impossible")
	req.SLA.MaxLatencyMs = 0.01
	if _, err := orch.Submit(req, nil); err != nil {
		t.Fatal(err)
	}
	ev := collect(t, ch, 1)[0]
	if ev.RejectCode != slice.RejectLatencyUnmeetable {
		t.Fatalf("reject code %q, want %q", ev.RejectCode, slice.RejectLatencyUnmeetable)
	}
	if ev.State != "rejected" {
		t.Fatalf("state %q", ev.State)
	}
}

// TestEventExpiry checks the contracted expiry publishes EventExpired.
func TestEventExpiry(t *testing.T) {
	orch, s := eventEnv(t, Config{Overbook: true, Risk: 0.9})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := orch.Watch(ctx, WatchOptions{Types: []EventType{EventExpired}})

	req := eventReq("short")
	req.SLA.Duration = 10 * time.Minute
	if _, err := orch.Submit(req, nil); err != nil {
		t.Fatal(err)
	}
	s.RunFor(time.Hour)
	ev := collect(t, ch, 1)[0]
	if ev.State != "terminated" || ev.Detail != "expired" {
		t.Fatalf("event %+v", ev)
	}
}

// TestWatchResumeMatchesUninterrupted is the core replay contract: a
// subscriber that disconnects mid-stream and resumes with Since=<last seen>
// observes the exact same ordered tail an uninterrupted subscriber does.
func TestWatchResumeMatchesUninterrupted(t *testing.T) {
	orch, s := eventEnv(t, Config{Overbook: true, Risk: 0.9})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	full := orch.Watch(ctx, WatchOptions{})

	var ids []slice.ID
	for i := 0; i < 3; i++ {
		sl, err := orch.Submit(eventReq(fmt.Sprintf("t%d", i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sl.ID())
	}
	s.RunFor(15 * time.Second) // 3 submitted + 3 admitted + 3 installed

	// Interrupted subscriber: replays from the start, reads 4 events, dies.
	ctx1, cancel1 := context.WithCancel(context.Background())
	part1 := collect(t, orch.Watch(ctx1, WatchOptions{Since: -1}), 4)
	cancel1()

	// More events while it is gone.
	for _, id := range ids {
		if err := orch.Delete(id); err != nil {
			t.Fatal(err)
		}
	}

	// Resume after the last seen sequence.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	part2 := collect(t, orch.Watch(ctx2, WatchOptions{Since: part1[len(part1)-1].Seq}), 8)

	want := collect(t, full, 12)
	got := append(part1, part2...)
	if len(got) != len(want) {
		t.Fatalf("%d resumed events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq || got[i].Type != want[i].Type || got[i].Slice != want[i].Slice {
			t.Fatalf("event %d diverged: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestWatchFilters checks tenant and state server-side filtering.
func TestWatchFilters(t *testing.T) {
	orch, s := eventEnv(t, Config{Overbook: true, Risk: 0.9})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	byTenant := orch.Watch(ctx, WatchOptions{Tenants: []string{"bob"}})
	byState := orch.Watch(ctx, WatchOptions{States: []string{"active"}})

	if _, err := orch.Submit(eventReq("alice"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := orch.Submit(eventReq("bob"), nil); err != nil {
		t.Fatal(err)
	}
	s.RunFor(15 * time.Second)

	for _, ev := range collect(t, byTenant, 3) { // submitted, admitted, installed
		if ev.Tenant != "bob" {
			t.Fatalf("tenant filter leaked %+v", ev)
		}
	}
	for _, ev := range collect(t, byState, 2) { // both installs
		if ev.Type != EventInstalled || ev.State != "active" {
			t.Fatalf("state filter leaked %+v", ev)
		}
	}
}

// TestSlowSubscriberResyncs pins the backpressure contract: a subscriber
// that stops reading while the ring wraps receives one resync marker and
// then the retained tail — and the publisher is never blocked.
func TestSlowSubscriberResyncs(t *testing.T) {
	bus := NewEventBus(8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := bus.Watch(ctx, WatchOptions{Buffer: 1})

	// Publish far past ring+buffer without any consumer: must never block.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			bus.Publish(Event{Type: EventSubmitted, Slice: slice.ID(fmt.Sprintf("s-%d", i+1))})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher blocked on a slow subscriber")
	}

	sawResync := false
	last := int64(0)
	deadline := time.After(5 * time.Second)
	for last < 100 {
		select {
		case ev := <-ch:
			if ev.Type == EventResync {
				sawResync = true
			} else if ev.Seq <= last {
				t.Fatalf("sequence went backwards: %d after %d", ev.Seq, last)
			}
			last = ev.Seq
		case <-deadline:
			t.Fatalf("timed out at seq %d (resync=%v)", last, sawResync)
		}
	}
	if !sawResync {
		t.Fatal("slow subscriber never received a resync marker")
	}
}

// TestWatchSinceAheadResyncs: a stale resume token from a previous daemon
// run (ahead of the current stream) must resync immediately, not hang.
func TestWatchSinceAheadResyncs(t *testing.T) {
	bus := NewEventBus(8)
	bus.Publish(Event{Type: EventSubmitted})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := bus.Watch(ctx, WatchOptions{Since: 99})
	select {
	case ev := <-ch:
		if ev.Type != EventResync {
			t.Fatalf("got %+v, want resync", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no immediate resync for a future Since")
	}
}

// TestWatchNeverBlocksParallelAdmission races many concurrent submitters
// against slow and cancelled subscribers (run with -race): admission must
// complete regardless of subscriber behavior, with enough traffic to lap the
// replay ring.
func TestWatchNeverBlocksParallelAdmission(t *testing.T) {
	cfg := Config{
		Overbook: true, Risk: 0.9, AdmissionLoadFactor: 0.1,
		PLMNLimit: 4096, Shards: 8,
	}
	clock := sim.NewRealtimeClock()
	tb, err := testbed.New(testbed.Config{ENBs: 4, MaxPLMNs: 4096, CoreHosts: 32, EdgeHosts: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	orch := New(cfg, tb, clock, monitor.NewStore(256))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// A dead subscriber (never reads), a slow one, and one that cancels
	// mid-run.
	_ = orch.Watch(ctx, WatchOptions{Buffer: 1})
	slow := orch.Watch(ctx, WatchOptions{Buffer: 1})
	go func() {
		for range slow {
			time.Sleep(time.Millisecond)
		}
	}()
	midCtx, midCancel := context.WithCancel(context.Background())
	_ = orch.Watch(midCtx, WatchOptions{Buffer: 1})

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < eventBuffer/8; i++ {
				sl, err := orch.Submit(eventReq(fmt.Sprintf("t%d", g)), nil)
				if err != nil {
					t.Error(err)
					return
				}
				if sl.State() != slice.StateRejected {
					if err := orch.Delete(sl.ID()); err != nil {
						t.Error(err)
						return
					}
				}
				if i == 10 && g == 0 {
					midCancel()
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("admission blocked with slow/dead subscribers attached")
	}
	midCancel()
	if got := orch.Events().LastSeq(); got <= eventBuffer {
		t.Fatalf("only %d events published: the %d-event ring never lapped", got, eventBuffer)
	}
}

// TestListFiltered covers filters, keyset pagination and token validation.
func TestListFiltered(t *testing.T) {
	orch, s := eventEnv(t, Config{Overbook: true, Risk: 0.9})
	for i := 0; i < 3; i++ {
		if _, err := orch.Submit(eventReq("acme"), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := orch.Submit(eventReq("zeta"), nil); err != nil {
		t.Fatal(err)
	}
	bad := eventReq("zeta")
	bad.SLA.MaxLatencyMs = 0.01
	if _, err := orch.Submit(bad, nil); err != nil {
		t.Fatal(err)
	}
	s.RunFor(15 * time.Second)

	// Tenant filter.
	page, err := orch.ListFiltered(ListOptions{Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Slices) != 3 || page.NextPageToken != "" {
		t.Fatalf("tenant filter: %d slices, token %q", len(page.Slices), page.NextPageToken)
	}

	// State + reject-code filters.
	page, err = orch.ListFiltered(ListOptions{State: "rejected", RejectCode: slice.RejectLatencyUnmeetable})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Slices) != 1 || page.Slices[0].Tenant != "zeta" {
		t.Fatalf("reject filter: %+v", page.Slices)
	}

	// Pagination walks all 5 in order without duplicates.
	var seen []slice.ID
	token := ""
	for pages := 0; ; pages++ {
		page, err := orch.ListFiltered(ListOptions{Limit: 2, PageToken: token})
		if err != nil {
			t.Fatal(err)
		}
		for _, sn := range page.Slices {
			seen = append(seen, sn.ID)
		}
		if page.NextPageToken == "" {
			break
		}
		token = page.NextPageToken
		if pages > 5 {
			t.Fatal("pagination did not terminate")
		}
	}
	if len(seen) != 5 {
		t.Fatalf("pagination saw %d slices: %v", len(seen), seen)
	}
	for i := 1; i < len(seen); i++ {
		if seqOf(seen[i]) <= seqOf(seen[i-1]) {
			t.Fatalf("pagination out of order: %v", seen)
		}
	}

	// A token past the newest slice is an empty last page, the largest
	// one included.
	for _, tok := range []string{"1000000", strconv.Itoa(math.MaxInt)} {
		page, err := orch.ListFiltered(ListOptions{PageToken: tok})
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Slices) != 0 || page.NextPageToken != "" {
			t.Fatalf("token %s: %d slices, next %q", tok, len(page.Slices), page.NextPageToken)
		}
	}

	// Bad token is a caller error.
	if _, err := orch.ListFiltered(ListOptions{PageToken: "nope"}); err == nil {
		t.Fatal("bad page token accepted")
	}

	// List() remains the zero-option wrapper.
	if got := len(orch.List()); got != 5 {
		t.Fatalf("List: %d slices", got)
	}
}

// TestSubmitCtxCancelled: a cancelled context fails fast without admitting.
func TestSubmitCtxCancelled(t *testing.T) {
	orch, _ := eventEnv(t, Config{Overbook: true, Risk: 0.9})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := orch.SubmitCtx(ctx, eventReq("late"), nil); err != context.Canceled {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if _, err := orch.SubmitBatchCtx(ctx, []BatchItem{{Request: eventReq("late")}}, BatchFCFS); err != context.Canceled {
		t.Fatalf("batch err %v, want context.Canceled", err)
	}
	if n := len(orch.List()); n != 0 {
		t.Fatalf("%d slices registered after cancelled submits", n)
	}
	if seq := orch.Events().LastSeq(); seq != 0 {
		t.Fatalf("%d events published after cancelled submits", seq)
	}
}

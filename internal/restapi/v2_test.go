package restapi

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/testbed"
)

// jsonBody marshals v for a raw http request.
func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(buf)
}

// liveEnv spins up a server over a wall-clock orchestrator (the daemon
// configuration) and returns its client.
func liveEnv(t *testing.T, clock sim.Scheduler) *Client {
	t.Helper()
	tb, err := testbed.New(testbed.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	orch := core.New(core.Config{Overbook: true, Risk: 0.9}, tb, clock, monitor.NewStore(256))
	srv := httptest.NewServer(NewServer(orch))
	t.Cleanup(srv.Close)
	return NewClient(srv.URL)
}

func TestV2ListFiltersAndPagination(t *testing.T) {
	c, s := apiEnv(t)
	for i := 0; i < 3; i++ {
		if _, err := c.SubmitSlice(validBody(), ""); err != nil {
			t.Fatal(err)
		}
	}
	other := validBody()
	other.Tenant = "zeta"
	other.MaxLatencyMs = 0.01 // rejected
	if _, err := c.SubmitSlice(other, ""); err != nil {
		t.Fatal(err)
	}
	s.RunFor(15 * time.Second)

	page, err := c.ListSlices(ListQuery{Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Slices) != 3 || page.NextPageToken != "" {
		t.Fatalf("tenant filter: %d slices token %q", len(page.Slices), page.NextPageToken)
	}

	page, err = c.ListSlices(ListQuery{State: "rejected", RejectCode: slice.RejectLatencyUnmeetable})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Slices) != 1 || page.Slices[0].Tenant != "zeta" {
		t.Fatalf("reject filter: %+v", page.Slices)
	}

	// Two pages of two.
	page, err = c.ListSlices(ListQuery{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Slices) != 2 || page.NextPageToken == "" {
		t.Fatalf("page 1: %d slices token %q", len(page.Slices), page.NextPageToken)
	}
	page2, err := c.ListSlices(ListQuery{Limit: 2, PageToken: page.NextPageToken})
	if err != nil {
		t.Fatal(err)
	}
	if len(page2.Slices) != 2 || page2.Slices[0].ID == page.Slices[1].ID {
		t.Fatalf("page 2: %+v", page2.Slices)
	}

	// Bad query parameters are 400s.
	for _, path := range []string{"/api/v2/slices?limit=-1", "/api/v2/slices?page_token=x"} {
		resp, err := http.Get(c.BaseURL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s -> %d", path, resp.StatusCode)
		}
	}
}

func TestV2SubmitIdempotency(t *testing.T) {
	c, _ := apiEnv(t)
	first, err := c.SubmitSlice(validBody(), "key-1")
	if err != nil {
		t.Fatal(err)
	}
	if first.State != "installing" {
		t.Fatalf("state %q", first.State)
	}
	// Same key replays the same slice; no second admission happens.
	replay, err := c.SubmitSlice(validBody(), "key-1")
	if err != nil {
		t.Fatal(err)
	}
	if replay.ID != first.ID {
		t.Fatalf("replay created a new slice: %s vs %s", replay.ID, first.ID)
	}
	// A different key (and no key) create new slices.
	second, err := c.SubmitSlice(validBody(), "key-2")
	if err != nil {
		t.Fatal(err)
	}
	third, err := c.SubmitSlice(validBody(), "")
	if err != nil {
		t.Fatal(err)
	}
	if second.ID == first.ID || third.ID == first.ID || third.ID == second.ID {
		t.Fatalf("ids not unique: %s %s %s", first.ID, second.ID, third.ID)
	}
	if page, _ := c.ListSlices(ListQuery{}); len(page.Slices) != 3 {
		t.Fatalf("%d slices after 4 posts (1 replayed)", len(page.Slices))
	}
}

func TestV2SubmitIdempotentReplayHeader(t *testing.T) {
	c, _ := apiEnv(t)
	if _, err := c.SubmitSlice(validBody(), "key-h"); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPost, c.BaseURL+"/api/v2/slices", jsonBody(t, validBody()))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", "key-h")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.Header.Get("Idempotency-Replay") != "true" {
		t.Fatal("missing Idempotency-Replay header on the duplicate")
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("replay status %d, want the original 202", resp.StatusCode)
	}
}

// sseCollect consumes the client stream until n events arrived, then stops.
func sseCollect(t *testing.T, c *Client, p WatchParams, n int) []core.Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var out []core.Event
	_, err := c.StreamEvents(ctx, p, func(ev core.Event) error {
		out = append(out, ev)
		if len(out) >= n {
			return ErrStopWatch
		}
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v (got %d/%d events)", err, len(out), n)
	}
	return out
}

func TestSSEStreamDeliversLifecycle(t *testing.T) {
	c, s := apiEnv(t)
	snap, err := c.SubmitSlice(validBody(), "")
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(15 * time.Second)
	if err := c.DeleteSlice(snap.ID); err != nil {
		t.Fatal(err)
	}
	got := sseCollect(t, c, WatchParams{Since: -1}, 4)
	want := []core.EventType{core.EventSubmitted, core.EventAdmitted, core.EventInstalled, core.EventDeleted}
	for i, ev := range got {
		if ev.Type != want[i] || ev.Slice != snap.ID {
			t.Fatalf("event %d: %+v, want type %s", i, ev, want[i])
		}
	}
}

// TestSSEResumeAfterDisconnect is the acceptance criterion: kill the
// connection mid-stream, resume via ?since=, and the concatenated sequence
// must equal what an uninterrupted subscriber observes.
func TestSSEResumeAfterDisconnect(t *testing.T) {
	c, s := apiEnv(t)

	// Phase 1: generate some events, consume a prefix, then kill the
	// connection (context cancel closes the TCP stream mid-flight).
	a, err := c.SubmitSlice(validBody(), "")
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(15 * time.Second) // submitted, admitted, installed
	ctx1, cancel1 := context.WithCancel(context.Background())
	var part1 []core.Event
	killed := false
	_, err = c.StreamEvents(ctx1, WatchParams{Since: -1}, func(ev core.Event) error {
		if killed {
			return nil // a frame already in flight when the kill landed
		}
		part1 = append(part1, ev)
		if len(part1) == 2 {
			killed = true
			cancel1() // kill mid-stream with the server still holding events
		}
		return nil
	})
	if err != context.Canceled {
		t.Fatalf("stream err %v, want context.Canceled", err)
	}
	if len(part1) < 2 {
		t.Fatalf("consumed %d events before the kill", len(part1))
	}

	// Phase 2: more lifecycle activity while disconnected.
	b, err := c.SubmitSlice(validBody(), "")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteSlice(a.ID); err != nil {
		t.Fatal(err)
	}
	_ = b

	// Phase 3: resume from the last seen sequence; then compare the full
	// ordered sequence against an uninterrupted ?since=0 subscriber.
	part2 := sseCollect(t, c, WatchParams{Since: part1[len(part1)-1].Seq}, 4)
	resumed := append(part1, part2...)
	uninterrupted := sseCollect(t, c, WatchParams{Since: -1}, len(resumed))
	for i := range uninterrupted {
		if resumed[i].Seq != uninterrupted[i].Seq ||
			resumed[i].Type != uninterrupted[i].Type ||
			resumed[i].Slice != uninterrupted[i].Slice {
			t.Fatalf("resumed stream diverged at %d:\n got %+v\nwant %+v",
				i, resumed[i], uninterrupted[i])
		}
	}
	// No gaps: sequences strictly increase by 1 across the kill boundary.
	for i := 1; i < len(resumed); i++ {
		if resumed[i].Seq != resumed[i-1].Seq+1 {
			t.Fatalf("gap after kill: seq %d follows %d", resumed[i].Seq, resumed[i-1].Seq)
		}
	}
}

func TestSSEFiltersAndBadSince(t *testing.T) {
	c, s := apiEnv(t)
	if _, err := c.SubmitSlice(validBody(), ""); err != nil {
		t.Fatal(err)
	}
	other := validBody()
	other.Tenant = "zeta"
	if _, err := c.SubmitSlice(other, ""); err != nil {
		t.Fatal(err)
	}
	s.RunFor(15 * time.Second)

	for _, ev := range sseCollect(t, c, WatchParams{Since: -1, Tenants: []string{"zeta"}}, 3) {
		if ev.Tenant != "zeta" {
			t.Fatalf("tenant filter leaked %+v", ev)
		}
	}
	for _, ev := range sseCollect(t, c, WatchParams{Since: -1, Types: []core.EventType{core.EventInstalled}}, 2) {
		if ev.Type != core.EventInstalled {
			t.Fatalf("type filter leaked %+v", ev)
		}
	}

	resp, err := http.Get(c.BaseURL + "/api/v2/events?since=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad since -> %d", resp.StatusCode)
	}
}

// TestLiveClockSSE exercises the stream against a wall-clock orchestrator
// (no simulator driving delivery), as the daemon runs it.
func TestLiveClockSSE(t *testing.T) {
	clock := sim.NewRealtimeClock()
	c := liveEnv(t, clock)
	done := make(chan []core.Event, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() {
		var evs []core.Event
		c.WatchEvents(ctx, WatchParams{}, func(ev core.Event) error {
			evs = append(evs, ev)
			if len(evs) == 3 {
				done <- evs
				return ErrStopWatch
			}
			return nil
		})
	}()
	time.Sleep(50 * time.Millisecond) // let the subscriber attach
	snap, err := c.SubmitSlice(validBody(), "live-key")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteSlice(snap.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case evs := <-done:
		want := []core.EventType{core.EventSubmitted, core.EventAdmitted, core.EventDeleted}
		for i, ev := range evs {
			if ev.Type != want[i] {
				t.Fatalf("event %d: %s, want %s", i, ev.Type, want[i])
			}
		}
	case <-ctx.Done():
		t.Fatal("live SSE events never arrived")
	}
}

func TestV2EpochSnapshot(t *testing.T) {
	c, s := apiEnv(t)

	// Before any epoch the snapshot does not exist yet: 404 envelope.
	if _, err := c.LastEpoch(); err == nil {
		t.Fatal("epoch snapshot served before the first epoch")
	}

	snap0, err := c.SubmitSlice(validBody(), "")
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(15 * time.Second) // install stages
	if err := c.RecordDemand(snap0.ID, 5); err != nil {
		t.Fatal(err)
	}
	s.RunFor(5 * time.Minute) // several control epochs

	snap, err := c.LastEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch < 1 || snap.MeasuredSlices < 1 {
		t.Fatalf("snapshot epoch=%d measured=%d, want both >= 1", snap.Epoch, snap.MeasuredSlices)
	}
	g, err := c.Gain()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Gain.Epochs > g.Epochs {
		t.Fatalf("snapshot ahead of live report: %d > %d", snap.Gain.Epochs, g.Epochs)
	}
	if snap.Gain.Admitted != g.Admitted {
		t.Fatalf("snapshot admitted %d, live %d (nothing changed since the epoch)", snap.Gain.Admitted, g.Admitted)
	}
	// Method guard: the endpoint is GET-only.
	resp, err := http.Post(c.BaseURL+"/api/v2/epoch", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /api/v2/epoch: %d, want 405", resp.StatusCode)
	}
}

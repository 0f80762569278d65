package restapi

// Regression tests for the SSE ?since= resume edge cases: a resume token
// beyond the stream head and a token lapped by the bounded replay ring must
// both yield one deterministic resync marker — never a silent empty stream,
// never duplicate or skipped events — and WatchEvents must treat the marker
// as authoritative repositioning across reconnects.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// replayRing is the orchestrator's event replay ring: a resume token more
// than this many events behind the head is lapped.
const replayRing = 1024

// resumeEnv builds a server over an orchestrator. Events are published
// straight onto the bus — the lifecycle machinery is not involved; the
// resume contract is purely the bus's.
func resumeEnv(t *testing.T) (*Client, *core.EventBus) {
	t.Helper()
	s := sim.NewSimulator(1)
	tb, err := testbed.New(testbed.Default(), s.Rand())
	if err != nil {
		t.Fatal(err)
	}
	orch := core.New(core.Config{}, tb, s, monitor.NewStore(16))
	orch.Start()
	srv := httptest.NewServer(NewServer(orch))
	t.Cleanup(srv.Close)
	return NewClient(srv.URL), orch.Events()
}

func publishN(bus *core.EventBus, n int) {
	for i := 0; i < n; i++ {
		bus.Publish(core.Event{Type: "test-ev", Time: time.Unix(int64(i), 0)})
	}
}

// resumeFrame is one expected frame of a resume stream.
type resumeFrame struct {
	seq    int64
	resync bool
}

// eventFrames are the plain frames of seqs from..to, inclusive.
func eventFrames(from, to int64) []resumeFrame {
	var fs []resumeFrame
	for seq := from; seq <= to; seq++ {
		fs = append(fs, resumeFrame{seq: seq})
	}
	return fs
}

func TestSSEResumeEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		// prepublish fills the bus before the subscription.
		prepublish int
		since      int64
		// livePublish publishes one more event from inside the callback on
		// the first frame — deterministic "new event after subscribe"
		// without sleeping.
		livePublish bool
		want        []resumeFrame
	}{
		{
			// Token ahead of a non-empty stream (e.g. minted by a
			// longer-lived previous daemon): one resync at the current head,
			// then live events — nothing duplicated, nothing silently
			// withheld.
			name:        "since-beyond-head",
			prepublish:  5,
			since:       50,
			livePublish: true,
			want:        []resumeFrame{{5, true}, {6, false}},
		},
		{
			// Token ahead of a brand-new, still-empty stream: the resync
			// must still arrive immediately (at seq 0), not hang silently,
			// and the first real event must then be seen exactly once.
			name:        "since-beyond-empty-stream",
			prepublish:  0,
			since:       50,
			livePublish: true,
			want:        []resumeFrame{{0, true}, {1, false}},
		},
		{
			// Token far past the replay ring (head=ring+12, oldest
			// retained=13): one resync at oldest-1 acknowledging the loss,
			// then every retained event in order and the live publish — no
			// gaps, no duplicates, no silent empty stream.
			name:        "since-lapped-past-ring",
			prepublish:  replayRing + 12,
			since:       2,
			livePublish: true,
			want:        append([]resumeFrame{{12, true}}, eventFrames(13, replayRing+13)...),
		},
		{
			// Normal resume: token within the ring replays the tail
			// gaplessly with no resync marker.
			name:       "since-within-ring",
			prepublish: 6,
			since:      5,
			want:       []resumeFrame{{6, false}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, bus := resumeEnv(t)
			publishN(bus, tc.prepublish)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			var got []core.Event
			published := false
			_, err := c.StreamEvents(ctx, WatchParams{Since: tc.since}, func(ev core.Event) error {
				got = append(got, ev)
				if tc.livePublish && !published {
					published = true
					bus.Publish(core.Event{Type: "test-ev", Time: time.Unix(99, 0)})
				}
				if len(got) >= len(tc.want) {
					return ErrStopWatch
				}
				return nil
			})
			if err != nil {
				t.Fatalf("stream: %v (got %d/%d frames: %+v)", err, len(got), len(tc.want), got)
			}
			for i, want := range tc.want {
				ev := got[i]
				isResync := ev.Type == core.EventResync
				if ev.Seq != want.seq || isResync != want.resync {
					t.Errorf("frame %d = {seq %d, type %s}, want {seq %d, resync %v}",
						i, ev.Seq, ev.Type, want.seq, want.resync)
				}
			}
			// No duplicate deliveries anywhere in the stream.
			seen := make(map[int64]int)
			for _, ev := range got {
				if ev.Type == core.EventResync {
					continue
				}
				if seen[ev.Seq]++; seen[ev.Seq] > 1 {
					t.Errorf("event seq %d delivered %d times", ev.Seq, seen[ev.Seq])
				}
			}
		})
	}
}

// scriptedSSE serves a fixed script of SSE frames per connection, closes
// the connection after the script, and records each connection's ?since= —
// the harness for the WatchEvents reconnect contract, where the server
// side must be exactly controllable.
type scriptedSSE struct {
	mu     sync.Mutex
	sinces []string
	// scripts[i] is the frame list for connection i (the last script
	// repeats for any further connections).
	scripts [][]core.Event
	conns   int
}

func (h *scriptedSSE) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	i := h.conns
	h.conns++
	h.sinces = append(h.sinces, r.URL.Query().Get("since"))
	script := h.scripts[min(i, len(h.scripts)-1)]
	h.mu.Unlock()

	w.Header().Set("Content-Type", "text/event-stream")
	w.WriteHeader(http.StatusOK)
	fl := w.(http.Flusher)
	for _, ev := range script {
		data, _ := json.Marshal(ev)
		fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
		fl.Flush()
	}
	// Returning closes the connection — WatchEvents must reconnect.
}

// TestWatchEventsRepositionsAfterResync pins the reconnect regression: a
// client holding a stale token (since=50) against a young stream gets a
// resync at seq 0 and the connection drops. The reconnect MUST carry the
// resync position (live tail), not re-send the stale token — which would
// re-deliver the resync forever and silently skip every event until the
// young stream outgrew 50.
func TestWatchEventsRepositionsAfterResync(t *testing.T) {
	h := &scriptedSSE{scripts: [][]core.Event{
		// Connection 1: just the resync-at-0 marker, then drop.
		{{Seq: 0, Type: core.EventResync, Detail: "ahead of stream"}},
		// Connection 2: the young stream's first events.
		{{Seq: 1, Type: "test-ev"}, {Seq: 2, Type: "test-ev"}, {Seq: 3, Type: "test-ev"}},
	}}
	srv := httptest.NewServer(h)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var got []core.Event
	err := NewClient(srv.URL).WatchEvents(ctx, WatchParams{Since: 50}, func(ev core.Event) error {
		got = append(got, ev)
		if len(got) >= 4 {
			return ErrStopWatch
		}
		return nil
	})
	if err != nil {
		t.Fatalf("watch: %v (got %+v)", err, got)
	}

	h.mu.Lock()
	sinces := append([]string(nil), h.sinces...)
	h.mu.Unlock()
	if len(sinces) < 2 {
		t.Fatalf("only %d connections", len(sinces))
	}
	if sinces[0] != "50" {
		t.Errorf("connection 1 since=%q, want the caller's token 50", sinces[0])
	}
	// The regression: before the fix the reconnect re-sent since=50.
	if sinces[1] == "50" {
		t.Errorf("connection 2 re-sent the stale token since=50 — resync position was discarded")
	}
	if sinces[1] != "" {
		t.Errorf("connection 2 since=%q, want live tail (no since param) after resync at 0", sinces[1])
	}

	wantTypes := []core.EventType{core.EventResync, "test-ev", "test-ev", "test-ev"}
	if len(got) != len(wantTypes) {
		t.Fatalf("observed %d frames %+v, want %d", len(got), got, len(wantTypes))
	}
	for i, w := range wantTypes {
		if got[i].Type != w {
			t.Errorf("frame %d type %s, want %s", i, got[i].Type, w)
		}
	}
	// Exactly one resync: duplicates would mean the client looped on the
	// stale token.
	n := 0
	for _, ev := range got {
		if ev.Type == core.EventResync {
			n++
		}
	}
	if n != 1 {
		t.Errorf("saw %d resync markers, want exactly 1", n)
	}
}

// TestWatchEventsResumesFromMidStreamResync covers the lapped variant at
// the WatchEvents layer: a resync at oldest-1 followed by a drop must make
// the reconnect resume from the marker's sequence, not the pre-lap token.
func TestWatchEventsResumesFromMidStreamResync(t *testing.T) {
	h := &scriptedSSE{scripts: [][]core.Event{
		{{Seq: 12, Type: core.EventResync, Detail: "lapped"}},
		{{Seq: 13, Type: "test-ev"}, {Seq: 14, Type: "test-ev"}},
	}}
	srv := httptest.NewServer(h)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var got []core.Event
	err := NewClient(srv.URL).WatchEvents(ctx, WatchParams{Since: 2}, func(ev core.Event) error {
		got = append(got, ev)
		if len(got) >= 3 {
			return ErrStopWatch
		}
		return nil
	})
	if err != nil {
		t.Fatalf("watch: %v (got %+v)", err, got)
	}
	h.mu.Lock()
	sinces := append([]string(nil), h.sinces...)
	h.mu.Unlock()
	if len(sinces) < 2 {
		t.Fatalf("only %d connections", len(sinces))
	}
	if sinces[0] != "2" || sinces[1] != "12" {
		t.Errorf("connection sinces = %v, want [2 12]", sinces)
	}
}

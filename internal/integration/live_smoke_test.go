package integration_test

// Live-daemon smoke: boot the exact stack cmd/orchestrator serves — a
// wall-clock System with the REST API mounted as the daemon mounts it — and
// drive one idempotent submit / watch / delete round-trip through the
// client, asserting the ordered event stream reports the whole
// lifecycle. The CI workflow runs the same round-trip against the real
// binary; this in-process twin keeps it in tier-1 and under -race.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	overbook "repro"
	"repro/internal/core"
	"repro/internal/restapi"
)

func TestLiveDaemonV2RoundTrip(t *testing.T) {
	cfg := overbook.OrchestratorConfig{
		Overbook: true,
		Risk:     0.9,
		Epoch:    200 * time.Millisecond,
	}
	sys, err := overbook.NewLive(overbook.Options{Seed: 42, Orchestrator: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	sys.Orchestrator.Start()
	defer sys.Orchestrator.Stop()

	api := restapi.NewServer(sys.Orchestrator)
	mux := http.NewServeMux()
	mux.Handle("/api/v1/", api)
	mux.Handle("/api/v2/", api)
	mux.Handle("/healthz", api)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c := restapi.NewClient(srv.URL)

	if err := c.Health(); err != nil {
		t.Fatal(err)
	}

	// Watch in the background from the head of the stream.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	type seen struct {
		types []core.EventType
	}
	got := make(chan seen, 1)
	ready := make(chan struct{})
	go func() {
		var s seen
		close(ready)
		c.WatchEvents(ctx, restapi.WatchParams{}, func(ev core.Event) error {
			s.types = append(s.types, ev.Type)
			if ev.Type == core.EventDeleted {
				got <- s
				return restapi.ErrStopWatch
			}
			return nil
		})
	}()
	<-ready
	time.Sleep(100 * time.Millisecond) // let the SSE subscription attach

	body := restapi.SliceRequestBody{
		Tenant: "smoke", DurationSeconds: 300, MaxLatencyMs: 40,
		ThroughputMbps: 15, PriceEUR: 20, PenaltyEUR: 1,
	}
	snap, err := c.SubmitSlice(body, "smoke-key")
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != "installing" {
		t.Fatalf("state %q reason %q", snap.State, snap.Reason)
	}
	// Idempotent retry returns the same slice.
	again, err := c.SubmitSlice(body, "smoke-key")
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != snap.ID {
		t.Fatalf("idempotent retry created %s, want %s", again.ID, snap.ID)
	}
	// The filtered list sees it.
	page, err := c.ListSlices(restapi.ListQuery{Tenant: "smoke"})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Slices) != 1 || page.Slices[0].ID != snap.ID {
		t.Fatalf("list %+v", page.Slices)
	}
	if err := c.DeleteSlice(snap.ID); err != nil {
		t.Fatal(err)
	}

	select {
	case s := <-got:
		want := map[core.EventType]bool{
			core.EventSubmitted: false, core.EventAdmitted: false, core.EventDeleted: false,
		}
		for _, typ := range s.types {
			if _, ok := want[typ]; ok {
				want[typ] = true
			}
		}
		for typ, ok := range want {
			if !ok {
				t.Fatalf("event %s never observed in %v", typ, s.types)
			}
		}
	case <-ctx.Done():
		t.Fatal("lifecycle events never arrived over the live stream")
	}
}

package restapi

// Client side of GET /api/v2/events: a minimal Server-Sent-Events consumer
// with ?since resume. StreamEvents handles one connection; WatchEvents
// layers automatic reconnect-and-resume on top, so a consumer survives
// daemon restarts and flaky links while observing each event at most once
// (modulo the resync contract — see core.EventResync).

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// ErrStopWatch is returned by a watch callback to end the stream cleanly:
// StreamEvents/WatchEvents stop and return nil.
var ErrStopWatch = errors.New("restapi: stop watch")

// WatchParams positions and filters an event subscription, mirroring
// core.WatchOptions over the wire: Since 0 tails new events, > 0 resumes
// after that sequence, < 0 replays everything the server ring retains.
type WatchParams struct {
	Since   int64
	Tenants []string
	States  []string
	Types   []core.EventType
}

func (p WatchParams) query() string {
	q := url.Values{}
	switch {
	case p.Since > 0:
		q.Set("since", strconv.FormatInt(p.Since, 10))
	case p.Since < 0:
		q.Set("since", "0")
	}
	for _, t := range p.Tenants {
		q.Add("tenant", t)
	}
	for _, s := range p.States {
		q.Add("state", s)
	}
	for _, t := range p.Types {
		q.Add("type", string(t))
	}
	if len(q) == 0 {
		return ""
	}
	return "?" + q.Encode()
}

// callbackErr wraps an error returned by the watch callback so WatchEvents
// can tell "the consumer is done" apart from "the connection dropped".
type callbackErr struct{ err error }

func (e callbackErr) Error() string { return e.err.Error() }
func (e callbackErr) Unwrap() error { return e.err }

// StreamEvents opens one SSE connection to /api/v2/events and invokes fn
// for every event until ctx is cancelled, fn returns an error, or the
// connection drops. It returns the last sequence number seen (0 if none) —
// pass it back as WatchParams.Since to resume without gaps — and the
// terminating error: nil on ErrStopWatch, ctx.Err() on cancellation, the
// transport error otherwise.
func (c *Client) StreamEvents(ctx context.Context, p WatchParams, fn func(core.Event) error) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/api/v2/events"+p.query(), nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.http().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, responseError(resp)
	}

	var last int64
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 16*1024), 1024*1024)
	var data strings.Builder
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if data.Len() == 0 {
				continue // retry:/comment frames carry no data
			}
			var ev core.Event
			if err := json.Unmarshal([]byte(data.String()), &ev); err != nil {
				return last, fmt.Errorf("restapi: bad event frame: %w", err)
			}
			data.Reset()
			if ev.Seq > last {
				last = ev.Seq
			}
			if err := fn(ev); err != nil {
				if errors.Is(err, ErrStopWatch) {
					return last, nil
				}
				return last, callbackErr{err}
			}
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		default:
			// id:/event:/retry: lines and comments: the data JSON already
			// carries seq and type.
		}
	}
	if ctx.Err() != nil {
		return last, ctx.Err()
	}
	if err := sc.Err(); err != nil {
		return last, err
	}
	return last, errors.New("restapi: event stream closed by server")
}

// WatchEvents consumes the event stream with automatic resume: when the
// connection drops it reconnects with since=<last seen sequence>, so fn
// observes the same ordered sequence an uninterrupted subscriber would (a
// "resync" event signals the gap when the server ring no longer holds the
// resume point). It returns nil when fn returns ErrStopWatch, fn's error
// when it aborts, and ctx.Err() on cancellation.
func (c *Client) WatchEvents(ctx context.Context, p WatchParams, fn func(core.Event) error) error {
	since := p.Since
	for {
		// Resync markers are authoritative repositioning, tracked here
		// separately from `last` because a marker's sequence may be lower
		// than the stale resume token — including 0, when the server's
		// stream is younger than the token (daemon restart). Folding it
		// into `last` would be wrong the other way: last must never move
		// backwards past events fn already observed on this connection.
		resynced := false
		var resyncTo int64
		last, err := c.StreamEvents(ctx, WatchParams{
			Since: since, Tenants: p.Tenants, States: p.States, Types: p.Types,
		}, func(ev core.Event) error {
			if ev.Type == core.EventResync {
				resynced = true
				resyncTo = ev.Seq
			}
			return fn(ev)
		})
		switch {
		case last > 0:
			since = last
		case resynced:
			// Only the marker arrived before the drop. Resume from its
			// sequence — for Seq 0 that collapses to a live tail, which is
			// exactly the contract: the pre-restart history is gone.
			// Keeping the stale token instead would re-deliver a duplicate
			// resync on every reconnect and silently skip every new event
			// until the young stream outgrew the token.
			since = resyncTo
		}
		// A Since<0 full-replay request with no events consumed stays <0:
		// re-requesting the replay after a failed or empty connection can
		// never duplicate (nothing was delivered) but collapsing to a live
		// tail would silently drop the retained history the caller asked
		// for — e.g. when the first dial races a daemon restart.
		switch {
		case err == nil:
			return nil // fn asked to stop
		case ctx.Err() != nil:
			return ctx.Err()
		default:
			var cb callbackErr
			if errors.As(err, &cb) {
				return cb.err
			}
		}
		// Transport-level drop: back off briefly, then resume.
		select {
		case <-time.After(time.Second):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

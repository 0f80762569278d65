package restapi

// The /api/v2/ surface: the event-driven counterpart of v1 (DESIGN.md §6).
// v2 keeps v1's JSON envelopes and error mapping but adds list filtering
// with keyset pagination, Idempotency-Key submission dedup, and the ordered
// slice-lifecycle stream as Server-Sent Events with ?since resume.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/core"
	"repro/internal/slice"
)

// handleListV2 serves GET /api/v2/slices with optional query filters
// state, tenant, reject_code, limit and page_token (keyset pagination: pass
// the previous response's next_page_token).
func (s *Server) handleListV2(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	opts := core.ListOptions{
		State:      q.Get("state"),
		Tenant:     q.Get("tenant"),
		RejectCode: slice.RejectCode(q.Get("reject_code")),
		PageToken:  q.Get("page_token"),
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("restapi: bad limit %q", v))
			return
		}
		opts.Limit = n
	}
	page, err := s.orch.ListFragments(opts)
	switch {
	case errors.Is(err, core.ErrBadPageToken):
		writeErr(w, http.StatusBadRequest, err)
		return
	case err != nil:
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	end := "]}"
	if page.NextPageToken != "" {
		token, _ := json.Marshal(page.NextPageToken) // a string always encodes
		end = `],"next_page_token":` + string(token) + "}"
	}
	writeFragmentPage(w, `{"slices":[`, page.Slices, end)
}

// handleEpochV2 serves GET /api/v2/epoch: the snapshot the control loop's
// telemetry barrier published at the end of its most recent pass — an
// epoch-aligned, immutable view of the gain report and RAN utilization that
// is at most one epoch stale and costs the orchestrator nothing to serve
// (a single atomic pointer load; see core.EpochSnapshot). 404 until the
// first epoch completes. Clients that need exact live counters keep using
// /api/v1/gain.
func (s *Server) handleEpochV2(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.orch.LastEpoch()
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("restapi: no control epoch has completed yet"))
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleRecovery serves GET /api/v2/recovery: the durability plane's status
// — whether a write-ahead log is attached, the last appended sequence, any
// latched persistence error, and (after a restart) the crash-recovery
// report of the boot (DESIGN.md §9). Always 200: a daemon without -data-dir
// reports {"enabled": false}.
func (s *Server) handleRecovery(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.orch.PersistStatus())
}

// handleSubmitV2 serves POST /api/v2/slices: v1 submission semantics (202
// installing, 200 in-band rejection, 400 validation, 5xx internal) plus
// Idempotency-Key dedup — duplicates replay the first outcome's status with
// a fresh snapshot of the same slice.
func (s *Server) handleSubmitV2(w http.ResponseWriter, r *http.Request) {
	s.submitSlice(w, r, r.Header.Get("Idempotency-Key"))
}

// handleEvents serves GET /api/v2/events: the ordered slice-lifecycle
// stream as Server-Sent Events. Each frame carries the event's sequence
// number as the SSE id, its type as the SSE event name, and the JSON
// encoding as data. Query parameters: since (resume after this sequence;
// since=0 replays everything the ring retains; absent = live tail),
// tenant, state and type (each repeatable) filter server-side. A consumer
// that outruns the bounded replay ring receives one "resync" frame and
// must re-list state (GET /api/v2/slices) before continuing.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, errors.New("restapi: streaming unsupported"))
		return
	}
	opts := core.WatchOptions{Buffer: 256}
	q := r.URL.Query()
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("restapi: bad since %q", v))
			return
		}
		if n == 0 {
			opts.Since = -1 // explicit since=0: full replay of the ring
		} else {
			opts.Since = n
		}
	}
	opts.Tenants = q["tenant"]
	opts.States = q["state"]
	for _, t := range q["type"] {
		opts.Types = append(opts.Types, core.EventType(t))
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, "retry: 2000\n\n")
	fl.Flush()

	for ev := range s.orch.Watch(r.Context(), opts) {
		data, err := json.Marshal(ev)
		if err != nil {
			logf("restapi: encode event %d: %v", ev.Seq, err)
			continue
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data); err != nil {
			return // client hung up; Watch channel closes via r.Context()
		}
		fl.Flush()
	}
}

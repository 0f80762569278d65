// Package restapi exposes the orchestrator over HTTP/JSON — the demo's
// "gathered monitoring information is promptly fed to the end-to-end
// orchestrator through REST APIs" plus the dashboard's request surface:
// submit a slice with duration, maximum latency, expected throughput, price
// and penalty; watch its state; read the gains-vs-penalties report.
//
// Every resource has one name under /api/v2/ (routed with Go 1.22 method
// patterns, DESIGN.md §6): filtered and keyset-paginated GET /api/v2/slices,
// Idempotency-Key-deduplicated POST /api/v2/slices, GET /api/v2/events — the
// ordered lifecycle stream as Server-Sent Events with ?since=<seq> resume —
// and the substrate and telemetry reads (gain, metrics, topology, enbs,
// datacenters, epcs) with the link and demand hooks. GET /api/v1/gain is the
// one older name still answered (see routes).
//
// Server wraps an *core.Orchestrator; Client is the typed counterpart used
// by cmd/slicectl and the examples.
package restapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/slice"
	"repro/internal/transport"
)

// SliceRequestBody is the JSON payload of POST /api/v2/slices — exactly
// the dashboard's form fields (Section 3).
type SliceRequestBody struct {
	Tenant string `json:"tenant"`
	// DurationSeconds is the slice lifetime.
	DurationSeconds float64 `json:"duration_seconds"`
	// MaxLatencyMs is the maximum end-to-end latency allowed.
	MaxLatencyMs float64 `json:"max_latency_ms"`
	// ThroughputMbps is the expected throughput.
	ThroughputMbps float64 `json:"throughput_mbps"`
	// PriceEUR is the price the tenant is willing to pay.
	PriceEUR float64 `json:"price_eur"`
	// PenaltyEUR is the penalty expected per SLA-violation epoch.
	PenaltyEUR float64 `json:"penalty_eur"`
	// Class is one of "eMBB", "automotive", "e-health", "mMTC".
	Class string `json:"class,omitempty"`
	// EdgeCompute forces mobile-edge placement.
	EdgeCompute bool `json:"edge_compute,omitempty"`
}

// Request converts the body into the internal request type.
func (b SliceRequestBody) Request() (slice.Request, error) {
	class, err := slice.ParseClass(b.Class)
	if err != nil {
		return slice.Request{}, err
	}
	return slice.Request{
		Tenant: b.Tenant,
		SLA: slice.SLA{
			ThroughputMbps: b.ThroughputMbps,
			MaxLatencyMs:   b.MaxLatencyMs,
			Duration:       time.Duration(b.DurationSeconds * float64(time.Second)),
			PriceEUR:       b.PriceEUR,
			PenaltyEUR:     b.PenaltyEUR,
			Class:          class,
			EdgeCompute:    b.EdgeCompute,
		},
	}, nil
}

// DemandBody is the JSON payload of POST /api/v2/slices/{id}/demand, the
// live-mode monitoring feed.
type DemandBody struct {
	Mbps float64 `json:"mbps"`
}

// SeriesResponse is the payload of GET /api/v2/metrics/{name}.
type SeriesResponse struct {
	Name    string           `json:"name"`
	Samples []monitor.Sample `json:"samples"`
	Stats   monitor.Stats    `json:"stats"`
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// Server is the HTTP front of one orchestrator.
type Server struct {
	orch *core.Orchestrator
	mux  *http.ServeMux
	idem *idemStore[submitReply]
	// submit performs the slice submission; a seam so tests can inject
	// internal failures (defaults to orch.Submit).
	submit func(slice.Request) (*slice.Slice, error)
}

// NewServer builds the API server.
func NewServer(orch *core.Orchestrator) *Server {
	s := &Server{orch: orch, mux: http.NewServeMux(), idem: newIdemStore[submitReply](1024)}
	s.submit = func(req slice.Request) (*slice.Slice, error) { return orch.Submit(req, nil) }

	mount(s.mux, s.routes())
	return s
}

// routes is the single-cluster route table.
func (s *Server) routes() []route {
	return append([]route{
		{"", "/healthz", s.handleHealth},

		{http.MethodGet, "/api/v2/slices", s.handleList},
		{http.MethodPost, "/api/v2/slices", s.handleSubmit},
		{http.MethodPost, "/api/v2/slices/{id}/demand", s.handleDemand},
		{"", "/api/v2/gain", s.handleGain},
		{"", "/api/v2/metrics", s.handleMetrics},
		{"", "/api/v2/metrics/{name...}", s.handleMetricSeries},
		{"", "/api/v2/topology", s.handleTopology},
		{http.MethodPost, "/api/v2/links/{from}/{to}/{op}", s.handleLinkOps},
		{http.MethodPost, "/api/v2/links/", s.handleLinkShape},
		{"", "/api/v2/enbs", s.handleENBs},
		{"", "/api/v2/datacenters", s.handleDCs},
		{"", "/api/v2/epcs", s.handleEPCs},
		{http.MethodGet, "/api/v2/events", s.handleEvents},
		{http.MethodGet, "/api/v2/epoch", s.handleEpoch},
		{http.MethodGet, "/api/v2/recovery", s.handleRecovery},
		{http.MethodPost, "/api/v2/dryrun", s.handleDryRunRaw},

		// The repository benchmark's poll_watch workload still reads the
		// gain report here; ROADMAP item 6(e) moves it to /api/v2/gain and
		// deletes this row.
		{"", "/api/v1/gain", s.handleGain},
	}, itemRoutes("/api/v2/slices", s.handleGetSlice, s.handleDeleteSlice)...)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// logf reports response-encoding failures; swapped out by tests.
var logf = log.Printf

// writeJSON writes the response envelope. The status line and headers go
// out before the body — exactly once, so a mid-body encode failure can
// never double-write headers — and encode errors (typically the client
// hanging up) are logged once rather than silently dropped.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		logf("restapi: encode %T response: %v", v, err)
	}
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// writeEncoded writes a body already in wire form, trailing newline included
// — the slice read plane's answers, assembled from cached fragments
// (DESIGN.md §7.3) to the bytes writeJSON would have produced. Its length is
// known, so it goes out with Content-Length in one Write instead of chunked.
func writeEncoded(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		logf("restapi: write %d-byte response: %v", len(body), err)
	}
}

// appendFragments appends open + the comma-separated fragments + close +
// newline to dst, growing it once. The fragments are copied, never appended
// to: they are shared (slice.SnapshotJSON).
func appendFragments(dst []byte, open string, frags [][]byte, close string) []byte {
	n := len(open) + len(close) + 1 + max(len(frags)-1, 0) // newline, commas
	for _, f := range frags {
		n += len(f)
	}
	dst = append(slices.Grow(dst, n), open...)
	for i, f := range frags {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, f...)
	}
	return append(append(dst, close...), '\n')
}

// pageBuffers recycles list-page bodies: a dashboard poll assembles tens of
// kilobytes, and on a large registry garbage of that size is what a poll
// would cost the collector.
var pageBuffers = sync.Pool{New: func() any { return new([]byte) }}

// writeFragmentPage answers 200 with open + fragments + close.
func writeFragmentPage(w http.ResponseWriter, open string, frags [][]byte, close string) {
	buf := pageBuffers.Get().(*[]byte)
	*buf = appendFragments((*buf)[:0], open, frags, close)
	// A ResponseWriter does not retain what it is handed, so the buffer can
	// go back — unless it is an unpaginated list of a large registry, which
	// is not worth keeping.
	writeEncoded(w, http.StatusOK, *buf)
	if cap(*buf) <= 1<<20 {
		pageBuffers.Put(buf)
	}
}

// sliceBody is the wire form of one slice's current snapshot.
func sliceBody(sl *slice.Slice) ([]byte, error) {
	frag, err := sl.SnapshotJSON()
	if err != nil {
		return nil, err
	}
	return appendFragments(nil, "", [][]byte{frag}, ""), nil
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleList serves GET /api/v2/slices with optional query filters
// state, tenant, reject_code, limit and page_token (keyset pagination: pass
// the previous response's next_page_token).
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
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

// decodeSubmitBody parses and validates a slice submission, reporting any
// problem as a 400. The nil,false return means the response is written.
func (s *Server) decodeSubmitBody(w http.ResponseWriter, r *http.Request) (slice.Request, bool) {
	var body SliceRequestBody
	if !decodeBody(w, r, &body) {
		return slice.Request{}, false
	}
	req, err := body.Request()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return slice.Request{}, false
	}
	if err := req.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return slice.Request{}, false
	}
	return req, true
}

// handleSubmit serves POST /api/v2/slices: 202 installing, 200 in-band
// rejection (business rejections are not errors). Validation failures are
// the tenant's fault (400); anything Submit returns after validation passed
// is an internal failure (500). Idempotency-Key dedup: duplicates replay the
// first outcome's status with a fresh snapshot of the same slice.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeSubmitBody(w, r)
	if !ok {
		return
	}
	idemDo(w, r.Header.Get("Idempotency-Key"), s.idem, idemOp[submitReply]{
		act: func() (submitReply, error) {
			sl, err := s.submit(req)
			if err != nil {
				return submitReply{}, err
			}
			body, err := sliceBody(sl)
			if err != nil {
				return submitReply{}, err
			}
			// Rejection is decided before Submit returns and is final, so
			// the state read here agrees with the one inside body.
			return submitReply{id: sl.ID(), status: submitStatus(sl.State().String()), body: body}, nil
		},
		status:    func(rep submitReply) int { return rep.status },
		errStatus: internalError,
		refresh: func(rep submitReply) submitReply {
			if sl, ok := s.orch.Get(rep.id); ok {
				if body, err := sliceBody(sl); err == nil {
					rep.body = body
				}
			}
			return rep
		},
		write: func(w http.ResponseWriter, status int, rep submitReply) { writeEncoded(w, status, rep.body) },
	})
}

// submitReply is a slice submission's outcome as the idempotency store keeps
// it: the snapshot already in wire form.
type submitReply struct {
	id     slice.ID
	status int
	body   []byte
}

// submitStatus maps a submission outcome to the HTTP status, for slices and
// federated spans alike: 202 for an installing object, 200 for an in-band
// business rejection.
func submitStatus(state string) int {
	if state == slice.StateRejected.String() {
		return http.StatusOK
	}
	return http.StatusAccepted
}

// handleGetSlice serves GET /api/v2/slices/{id}.
func (s *Server) handleGetSlice(w http.ResponseWriter, r *http.Request) {
	id := slice.ID(r.PathValue("id"))
	sl, ok := s.orch.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("restapi: slice %s not found", id))
		return
	}
	body, err := sliceBody(sl)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeEncoded(w, http.StatusOK, body)
}

// handleDeleteSlice serves DELETE /api/v2/slices/{id}.
func (s *Server) handleDeleteSlice(w http.ResponseWriter, r *http.Request) {
	if err := s.orch.Delete(slice.ID(r.PathValue("id"))); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "terminated"})
}

// handleDemand serves POST /api/v2/slices/{id}/demand.
func (s *Server) handleDemand(w http.ResponseWriter, r *http.Request) {
	var body DemandBody
	if !decodeBody(w, r, &body) {
		return
	}
	if err := s.orch.RecordDemand(slice.ID(r.PathValue("id")), body.Mbps); err != nil {
		status := http.StatusNotFound
		if errors.Is(err, core.ErrBadDemand) {
			status = http.StatusBadRequest
		}
		writeErr(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "recorded"})
}

// handleEpoch serves GET /api/v2/epoch: the snapshot the control loop's
// telemetry barrier published at the end of its most recent pass — an
// epoch-aligned, immutable view of the gain report and RAN utilization that
// is at most one epoch stale and costs the orchestrator nothing to serve
// (a single atomic pointer load; see core.EpochSnapshot). 404 until the
// first epoch completes. Clients that need exact live counters read
// /api/v2/gain.
func (s *Server) handleEpoch(w http.ResponseWriter, r *http.Request) {
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

func (s *Server) handleGain(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.orch.Gain())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.orch.Store().Snapshot())
}

func (s *Server) handleMetricSeries(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == "" {
		writeErr(w, http.StatusBadRequest, errors.New("restapi: metric name required"))
		return
	}
	window := 0
	if q := r.URL.Query().Get("window"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("restapi: bad window %q", q))
			return
		}
		window = n
	}
	series, ok := s.orch.Store().Lookup(name)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("restapi: unknown metric %q", name))
		return
	}
	// One read: the stats summarise exactly the samples returned, even when
	// an epoch appends between here and the encoder.
	samples := series.Window(window)
	vals := make([]float64, len(samples))
	for i, smp := range samples {
		vals[i] = smp.Value
	}
	writeJSON(w, http.StatusOK, SeriesResponse{Name: name, Samples: samples, Stats: monitor.Compute(vals)})
}

func (s *Server) handleTopology(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.orch.Testbed().Transport.Snapshot())
}

// LinkOpBody is the JSON payload of POST /api/v2/links/{from}/{to}/degrade.
type LinkOpBody struct {
	CapacityMbps float64 `json:"capacity_mbps"`
}

// handleLinkOps serves POST /api/v2/links/{from}/{to}/{fail|restore|degrade}
// — the operational hooks for the demo's "different transport network
// topology configurations" and failure injection. An unknown link is a 404
// for every op; a degrade to a non-positive capacity is the caller's 400.
func (s *Server) handleLinkOps(w http.ResponseWriter, r *http.Request) {
	from, to, op := r.PathValue("from"), r.PathValue("to"), r.PathValue("op")
	switch op {
	case "fail":
		rep, err := s.orch.HandleLinkFailure(from, to)
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, rep)
	case "restore":
		if err := s.orch.RestoreLink(from, to); err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "restored"})
	case "degrade":
		var body LinkOpBody
		if !decodeBody(w, r, &body) {
			return
		}
		rep, err := s.orch.HandleLinkDegradation(from, to, body.CapacityMbps)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, transport.ErrNoLink) {
				status = http.StatusNotFound
			}
			writeErr(w, status, err)
			return
		}
		writeJSON(w, http.StatusOK, rep)
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("restapi: unknown link op %q", op))
	}
}

// handleLinkShape answers a POST under /api/v2/links/ whose path is not
// exactly {from}/{to}/{op} with the shape hint.
func (s *Server) handleLinkShape(w http.ResponseWriter, r *http.Request) {
	writeErr(w, http.StatusBadRequest, errors.New("restapi: want /api/v2/links/{from}/{to}/{fail|restore|degrade}"))
}

func (s *Server) handleENBs(w http.ResponseWriter, r *http.Request) {
	tb := s.orch.Testbed()
	out := make([]any, 0, 2)
	for _, e := range tb.RAN.All() {
		out = append(out, e.Snapshot())
	}
	writeJSON(w, http.StatusOK, out)
}

// dcView is one element of GET /api/v2/datacenters.
type dcView struct {
	Name     string  `json:"name"`
	Kind     string  `json:"kind"`
	Capacity any     `json:"capacity"`
	Util     float64 `json:"utilization"`
}

func (s *Server) handleDCs(w http.ResponseWriter, r *http.Request) {
	tb := s.orch.Testbed()
	var out []dcView
	for _, dc := range tb.Region.All() {
		out = append(out, dcView{Name: dc.Name(), Kind: dc.Kind(), Capacity: dc.Capacity(), Util: dc.Utilization()})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleEPCs(w http.ResponseWriter, r *http.Request) {
	var out []any
	for _, in := range s.orch.Testbed().Ctrl.Cloud.EPCs().All() {
		out = append(out, in.Snapshot())
	}
	writeJSON(w, http.StatusOK, out)
}

// idemStore is the bounded Idempotency-Key → outcome store behind idemDo
// (routes.go): the first request with a key performs the create, concurrent
// and later duplicates replay its outcome instead of creating another
// object. The store is bounded (oldest keys evicted) so a long-running
// daemon stays flat; failed creates are not cached, so retries re-attempt.
// Generic over the cached outcome: submitReply for /api/v2/slices,
// federation.SpanStatus for /api/v2/federation/slices, intent.Fleet and
// intent.Rollout for the intent plane.
type idemStore[T any] struct {
	mu      sync.Mutex
	limit   int
	order   []string
	entries map[string]*idemEntry[T]
}

// idemEntry is one key's outcome. once gates the actual submission:
// concurrent duplicates block on it and then replay.
type idemEntry[T any] struct {
	once sync.Once
	// done marks the submission inside once as finished (written under the
	// store mutex via complete). Capacity eviction may only drop done
	// entries: evicting an in-flight one would hand a concurrent duplicate
	// of the same key a fresh entry with an unfired once — a double-submit.
	done bool
	snap T
	err  error
}

func newIdemStore[T any](limit int) *idemStore[T] {
	return &idemStore[T]{limit: limit, entries: make(map[string]*idemEntry[T])}
}

// entry returns the entry for key, creating it when absent. Beyond the
// bound the oldest *completed* key is evicted; in-flight entries are never
// dropped (their once must stay the single gate for that key), so the store
// may transiently exceed limit while every retained submission is still in
// flight — it shrinks back as they complete and later inserts evict.
func (st *idemStore[T]) entry(key string) *idemEntry[T] {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, ok := st.entries[key]; ok {
		return e
	}
	e := &idemEntry[T]{}
	st.entries[key] = e
	st.order = append(st.order, key)
	if len(st.order) > st.limit {
		for i, k := range st.order {
			if old, ok := st.entries[k]; ok && old.done {
				delete(st.entries, k)
				st.order = append(st.order[:i], st.order[i+1:]...)
				break
			}
		}
	}
	return e
}

// complete marks the key's submission finished, making the entry eligible
// for capacity eviction. Failed submissions go through drop instead (the
// error-not-cached retry contract), so a completed entry always replays a
// real outcome.
func (st *idemStore[T]) complete(key string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, ok := st.entries[key]; ok {
		e.done = true
	}
}

// drop removes a failed key so a retry re-attempts the submission.
func (st *idemStore[T]) drop(key string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.entries, key)
	for i, k := range st.order {
		if k == key {
			st.order = append(st.order[:i], st.order[i+1:]...)
			break
		}
	}
}

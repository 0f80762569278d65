package restapi

// The /api/v2/federation/ surface: the HTTP front of one federation tier
// (DESIGN.md §11). FederationServer is the multi-cluster counterpart of
// Server — same JSON envelopes, same error mapping, same route registrar and
// Idempotency-Key dedup (routes.go) — serving the cluster registry,
// federated span submission/teardown, the placement dry-run (explain), the
// aggregated member event stream and the federation-wide gain report.

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/slice"
)

// FedSliceRequestBody is the JSON payload of POST /api/v2/federation/slices
// and /placement/explain: the dashboard's slice form plus the federation
// knobs (an optional cluster pin and the mean offered demand).
type FedSliceRequestBody struct {
	SliceRequestBody
	// Cluster optionally pins the whole slice to one named member.
	Cluster string `json:"cluster,omitempty"`
	// MeanDemandMbps is the mean offered load driven through the span's legs
	// (default 0.6 × ThroughputMbps).
	MeanDemandMbps float64 `json:"mean_demand_mbps,omitempty"`
}

// FedRequest converts the body into the federation request type.
func (b FedSliceRequestBody) FedRequest() (federation.Request, error) {
	req, err := b.SliceRequestBody.Request()
	if err != nil {
		return federation.Request{}, err
	}
	return federation.Request{
		Tenant:         req.Tenant,
		SLA:            req.SLA,
		Cluster:        b.Cluster,
		MeanDemandMbps: b.MeanDemandMbps,
	}, nil
}

// FederationServer is the HTTP front of one federation tier.
type FederationServer struct {
	fed  *federation.Federation
	mux  *http.ServeMux
	idem *idemStore[federation.SpanStatus]
	// submit performs the span submission; a seam so tests can inject
	// internal failures (defaults to fed.Submit).
	submit func(federation.Request) (federation.SpanStatus, error)
}

// NewFederationServer builds the federation API server.
func NewFederationServer(fed *federation.Federation) *FederationServer {
	s := &FederationServer{
		fed:  fed,
		mux:  http.NewServeMux(),
		idem: newIdemStore[federation.SpanStatus](1024),
	}
	s.submit = fed.Submit

	mount(s.mux, s.routes())
	return s
}

// routes is the federation route table. The /federation/ root row answers
// unknown endpoints with the JSON 404 envelope.
func (s *FederationServer) routes() []route {
	return append([]route{
		{"", "/healthz", s.handleHealth},
		{http.MethodGet, "/api/v2/federation/clusters", s.handleClusters},
		{http.MethodGet, "/api/v2/federation/slices", s.handleListSpans},
		{http.MethodPost, "/api/v2/federation/slices", s.handleSubmitSpan},
		{http.MethodPost, "/api/v2/federation/placement/explain", s.handleExplain},
		{http.MethodGet, "/api/v2/federation/events", s.handleFedEvents},
		{http.MethodGet, "/api/v2/federation/gain", s.handleFedGain},
		{http.MethodGet, "/api/v2/federation/stats", s.handleFedStats},
		{"", "/api/v2/federation/", s.handleUnknown},
	}, itemRoutes("/api/v2/federation/slices", s.handleGetSpan, s.handleDeleteSpan)...)
}

// ServeHTTP implements http.Handler.
func (s *FederationServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *FederationServer) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "mode": "federation"})
}

func (s *FederationServer) handleUnknown(w http.ResponseWriter, r *http.Request) {
	writeErr(w, http.StatusNotFound, fmt.Errorf("restapi: unknown federation endpoint %s", r.URL.Path))
}

// handleClusters serves GET /api/v2/federation/clusters: the registry view —
// every member's location, latency, reachability and federation-tier books.
func (s *FederationServer) handleClusters(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.fed.ClusterInfos())
}

// handleListSpans serves GET /api/v2/federation/slices: the live spans in
// submission order.
func (s *FederationServer) handleListSpans(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.fed.Spans())
}

// decodeFedBody parses a federated request body, reporting any problem as a
// 400. The false return means the response is written.
func decodeFedBody(w http.ResponseWriter, r *http.Request) (federation.Request, bool) {
	var body FedSliceRequestBody
	if !decodeBody(w, r, &body) {
		return federation.Request{}, false
	}
	req, err := body.FedRequest()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return federation.Request{}, false
	}
	return req, true
}

// handleSubmitSpan serves POST /api/v2/federation/slices: validation
// failures are the tenant's fault (400), placement and member rejections are
// in-band outcomes (200 with the typed cause), anything else is internal
// (500). Idempotency-Key dedup matches /api/v2/slices: the first request
// with a key submits, duplicates replay its outcome with
// Idempotency-Replay: true; failed submissions are not cached.
func (s *FederationServer) handleSubmitSpan(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeFedBody(w, r)
	if !ok {
		return
	}
	if err := (slice.Request{Tenant: req.Tenant, SLA: req.SLA}).Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	idemDo(w, r.Header.Get("Idempotency-Key"), s.idem, idemOp[federation.SpanStatus]{
		act:       func() (federation.SpanStatus, error) { return s.submit(req) },
		status:    func(st federation.SpanStatus) int { return submitStatus(st.State) },
		errStatus: fedSubmitError,
		refresh: func(st federation.SpanStatus) federation.SpanStatus {
			if cur, ok := s.fed.Get(st.ID); ok {
				return cur
			}
			return st
		},
	})
}

// fedSubmitError maps a span submission failure: a bad mean demand is the
// tenant's fault, anything else is internal.
func fedSubmitError(err error) int {
	if errors.Is(err, federation.ErrBadMeanDemand) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// handleGetSpan serves GET /api/v2/federation/slices/{id}.
func (s *FederationServer) handleGetSpan(w http.ResponseWriter, r *http.Request) {
	id := slice.ID(r.PathValue("id"))
	st, ok := s.fed.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("restapi: span %s not found", id))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleDeleteSpan serves DELETE /api/v2/federation/slices/{id}: every
// member leg is deleted in reverse plan order.
func (s *FederationServer) handleDeleteSpan(w http.ResponseWriter, r *http.Request) {
	if err := s.fed.Delete(slice.ID(r.PathValue("id"))); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "terminated"})
}

// handleExplain serves POST /api/v2/federation/placement/explain: the
// placement dry-run — every candidate member's verdict plus the chosen legs
// or the typed rejection, without reserving anything. Tenant is optional
// here; only the SLA is judged.
func (s *FederationServer) handleExplain(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeFedBody(w, r)
	if !ok {
		return
	}
	ex, err := s.fed.Explain(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, ex)
}

// handleFedEvents serves GET /api/v2/federation/events: the members'
// retained lifecycle events merged into one cluster-tagged stream ordered by
// time. ?limit bounds the result (default 256).
func (s *FederationServer) handleFedEvents(w http.ResponseWriter, r *http.Request) {
	limit := 256
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("restapi: bad limit %q", v))
			return
		}
		limit = n
	}
	evs := s.fed.RecentEvents(limit)
	if evs == nil {
		evs = []federation.ClusterEvent{}
	}
	writeJSON(w, http.StatusOK, evs)
}

// handleFedGain serves GET /api/v2/federation/gain: every member's
// gains-vs-penalties report folded into the federation-wide aggregate, plus
// the per-member reports in name order.
func (s *FederationServer) handleFedGain(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, FedGainResponse{
		Aggregate: s.fed.Gain(),
		Clusters:  s.fed.ClusterGains(),
	})
}

// FedGainResponse is the payload of GET /api/v2/federation/gain.
type FedGainResponse struct {
	Aggregate core.GainReport          `json:"aggregate"`
	Clusters  []federation.ClusterGain `json:"clusters"`
}

// handleFedStats serves GET /api/v2/federation/stats: the federation-tier
// placement counters.
func (s *FederationServer) handleFedStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.fed.Stats())
}

package restapi

// The intent-plane surface (DESIGN.md §13): versioned slice templates with
// server-side dry-run, fleet instantiation, and canary rollouts. Mounted by
// AttachIntent because the intent Manager is optional equipment — a daemon
// without one serves the slice surface unchanged.

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/intent"
)

// TemplateBody is the JSON payload of POST /api/v2/templates — the template
// contract with the wire's duration-in-seconds convention.
type TemplateBody struct {
	Name              string  `json:"name"`
	ThroughputMbps    float64 `json:"throughput_mbps"`
	MaxLatencyMs      float64 `json:"max_latency_ms"`
	DurationSeconds   float64 `json:"duration_seconds"`
	PriceEUR          float64 `json:"price_eur"`
	PenaltyEUR        float64 `json:"penalty_eur"`
	Class             string  `json:"class,omitempty"`
	ProvisionFraction float64 `json:"provision_fraction,omitempty"`
}

// Template converts the body into the internal template type.
func (b TemplateBody) Template() (intent.Template, error) {
	class, err := classFromString(b.Class)
	if err != nil {
		return intent.Template{}, err
	}
	return intent.Template{
		Name:              b.Name,
		ThroughputMbps:    b.ThroughputMbps,
		MaxLatencyMs:      b.MaxLatencyMs,
		Duration:          time.Duration(b.DurationSeconds * float64(time.Second)),
		PriceEUR:          b.PriceEUR,
		PenaltyEUR:        b.PenaltyEUR,
		Class:             class,
		ProvisionFraction: b.ProvisionFraction,
	}, nil
}

// DryRunBody is the JSON payload of POST /api/v2/templates/{name}/{version}/dryrun.
type DryRunBody struct {
	Tenant string `json:"tenant"`
	Region string `json:"region"`
}

// InstantiateBody is the JSON payload of POST /api/v2/fleets.
type InstantiateBody struct {
	Template string   `json:"template"`
	Version  int      `json:"version"`
	Tenants  []string `json:"tenants"`
	Regions  []string `json:"regions"`
	// Policy is the batch admission policy: "fcfs" (default), "density" or
	// "optimal".
	Policy string `json:"policy,omitempty"`
}

// RolloutBody is the JSON payload of POST /api/v2/rollouts.
type RolloutBody struct {
	Fleet          string  `json:"fleet"`
	ToVersion      int     `json:"to_version"`
	CanaryFraction float64 `json:"canary_fraction,omitempty"`
	WindowSeconds  float64 `json:"window_seconds,omitempty"`
	MaxViolations  int     `json:"max_violations,omitempty"`
}

// batchPolicyFromString parses the batch policy name (default FCFS).
func batchPolicyFromString(s string) (core.BatchPolicy, error) {
	switch strings.ToLower(s) {
	case "", "fcfs":
		return core.BatchFCFS, nil
	case "density":
		return core.BatchDensity, nil
	case "optimal", "knapsack", "knapsack-optimal":
		return core.BatchOptimal, nil
	default:
		return 0, fmt.Errorf("restapi: unknown batch policy %q", s)
	}
}

// AttachIntent mounts the intent-plane routes on the server. Fleet and
// rollout creation honour Idempotency-Key with the same dedup contract as
// slice submission: first request acts, duplicates replay, failures are not
// cached.
func (s *Server) AttachIntent(m *intent.Manager) {
	is := &intentServer{mgr: m,
		fleetIdem:   newIdemStore[intent.Fleet](1024),
		rolloutIdem: newIdemStore[intent.Rollout](1024),
	}
	mount(s.mux, is.routes())
}

// routes is the intent-plane route table. The /templates/ subtree row
// answers malformed template paths with the shape hint.
func (is *intentServer) routes() []route {
	return []route{
		{http.MethodGet, "/api/v2/templates", is.handleListTemplates},
		{http.MethodPost, "/api/v2/templates", is.handleCreateTemplate},
		{http.MethodGet, "/api/v2/templates/{name}/{version}", is.handleGetTemplate},
		{http.MethodPut, "/api/v2/templates/{name}/{version}", is.handleUpdateTemplate},
		{http.MethodPost, "/api/v2/templates/{name}/{version}/publish", is.handlePublishTemplate},
		{http.MethodPost, "/api/v2/templates/{name}/{version}/dryrun", is.handleTemplateDryRun},
		{"", "/api/v2/templates/", is.handleUnknown},

		{http.MethodGet, "/api/v2/fleets", is.handleListFleets},
		{http.MethodPost, "/api/v2/fleets", is.handleInstantiate},
		{http.MethodGet, "/api/v2/fleets/{id}", is.handleGetFleet},

		{http.MethodGet, "/api/v2/rollouts", is.handleListRollouts},
		{http.MethodPost, "/api/v2/rollouts", is.handleStartRollout},
		{http.MethodGet, "/api/v2/rollouts/{id}", is.handleGetRollout},
	}
}

// intentServer groups the intent handlers and their idempotency stores.
type intentServer struct {
	mgr         *intent.Manager
	fleetIdem   *idemStore[intent.Fleet]
	rolloutIdem *idemStore[intent.Rollout]
}

func (is *intentServer) handleUnknown(w http.ResponseWriter, r *http.Request) {
	writeErr(w, http.StatusNotFound, errors.New("restapi: want /api/v2/templates/{name}/{version}[/publish|/dryrun]"))
}

// templateRef parses the {name}/{version} path values; false means the
// response is written.
func templateRef(w http.ResponseWriter, r *http.Request) (string, int, bool) {
	name := r.PathValue("name")
	version, err := strconv.Atoi(r.PathValue("version"))
	if err != nil || version < 1 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("restapi: bad template version %q", r.PathValue("version")))
		return "", 0, false
	}
	return name, version, true
}

func (is *intentServer) handleListTemplates(w http.ResponseWriter, r *http.Request) {
	ts := is.mgr.Store().List()
	if ts == nil {
		ts = []intent.Template{}
	}
	writeJSON(w, http.StatusOK, ts)
}

func (is *intentServer) handleCreateTemplate(w http.ResponseWriter, r *http.Request) {
	var body TemplateBody
	if !decodeBody(w, r, &body) {
		return
	}
	t, err := body.Template()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	created, err := is.mgr.Store().CreateDraft(t, time.Now())
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, created)
}

func (is *intentServer) handleGetTemplate(w http.ResponseWriter, r *http.Request) {
	name, version, ok := templateRef(w, r)
	if !ok {
		return
	}
	t, ok := is.mgr.Store().Get(name, version)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("restapi: template %s v%d not found", name, version))
		return
	}
	writeJSON(w, http.StatusOK, t)
}

func (is *intentServer) handleUpdateTemplate(w http.ResponseWriter, r *http.Request) {
	name, version, ok := templateRef(w, r)
	if !ok {
		return
	}
	var body TemplateBody
	if !decodeBody(w, r, &body) {
		return
	}
	t, err := body.Template()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	t.Name, t.Version = name, version
	updated, err := is.mgr.Store().UpdateDraft(t)
	if err != nil {
		writeErr(w, statusForIntentErr(err), err)
		return
	}
	writeJSON(w, http.StatusOK, updated)
}

func (is *intentServer) handlePublishTemplate(w http.ResponseWriter, r *http.Request) {
	name, version, ok := templateRef(w, r)
	if !ok {
		return
	}
	t, err := is.mgr.Store().Publish(name, version, time.Now())
	if err != nil {
		writeErr(w, statusForIntentErr(err), err)
		return
	}
	writeJSON(w, http.StatusOK, t)
}

func (is *intentServer) handleTemplateDryRun(w http.ResponseWriter, r *http.Request) {
	name, version, ok := templateRef(w, r)
	if !ok {
		return
	}
	var body DryRunBody
	if !decodeBody(w, r, &body) {
		return
	}
	region := intent.RegionCore
	if body.Region != "" {
		var err error
		if region, err = intent.ParseRegion(body.Region); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	}
	rep, err := is.mgr.DryRun(name, version, body.Tenant, region)
	if err != nil {
		writeErr(w, statusForIntentErr(err), err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (is *intentServer) handleListFleets(w http.ResponseWriter, r *http.Request) {
	fs := is.mgr.Fleets()
	if fs == nil {
		fs = []intent.Fleet{}
	}
	writeJSON(w, http.StatusOK, fs)
}

func (is *intentServer) handleGetFleet(w http.ResponseWriter, r *http.Request) {
	f, ok := is.mgr.GetFleet(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("restapi: fleet %s not found", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, f)
}

func (is *intentServer) handleInstantiate(w http.ResponseWriter, r *http.Request) {
	var body InstantiateBody
	if !decodeBody(w, r, &body) {
		return
	}
	policy, err := batchPolicyFromString(body.Policy)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	regions := make([]intent.Region, 0, len(body.Regions))
	for _, rn := range body.Regions {
		region, err := intent.ParseRegion(rn)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		regions = append(regions, region)
	}
	idemCreated(w, r, is.fleetIdem, func() (intent.Fleet, error) {
		return is.mgr.Instantiate(body.Template, body.Version, body.Tenants, regions, policy, nil)
	})
}

func (is *intentServer) handleListRollouts(w http.ResponseWriter, r *http.Request) {
	rs := is.mgr.Rollouts()
	if rs == nil {
		rs = []intent.Rollout{}
	}
	writeJSON(w, http.StatusOK, rs)
}

func (is *intentServer) handleGetRollout(w http.ResponseWriter, r *http.Request) {
	ro, ok := is.mgr.GetRollout(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("restapi: rollout %s not found", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, ro)
}

func (is *intentServer) handleStartRollout(w http.ResponseWriter, r *http.Request) {
	var body RolloutBody
	if !decodeBody(w, r, &body) {
		return
	}
	idemCreated(w, r, is.rolloutIdem, func() (intent.Rollout, error) {
		return is.mgr.StartRollout(intent.RolloutConfig{
			Fleet:          body.Fleet,
			ToVersion:      body.ToVersion,
			CanaryFraction: body.CanaryFraction,
			Window:         time.Duration(body.WindowSeconds * float64(time.Second)),
			MaxViolations:  body.MaxViolations,
		})
	})
}

// idemCreated is the intent plane's idempotent create: 201 with the created
// object, replayed as first answered (fleets and rollouts are fetched by ID
// for their current state).
func idemCreated[T any](w http.ResponseWriter, r *http.Request, st *idemStore[T], create func() (T, error)) {
	idemDo(w, r.Header.Get("Idempotency-Key"), st, idemOp[T]{
		act:       create,
		status:    func(T) int { return http.StatusCreated },
		errStatus: statusForIntentErr,
	})
}

// statusForIntentErr maps intent-plane errors onto the envelope statuses:
// unknown objects are 404, a guardrail's refusal is 422 (the request was
// well-formed, the template violates policy), everything else the caller's
// fault is 400.
func statusForIntentErr(err error) int {
	switch {
	case errors.Is(err, intent.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, intent.ErrGuardrail):
		return http.StatusUnprocessableEntity
	}
	return http.StatusBadRequest
}

// handleDryRunRaw serves POST /api/v2/dryrun: the raw-request dry-run that
// needs no template — the same body as slice submission, answered with the
// feasibility report and nothing reserved. Registered unconditionally in
// NewServer (it only needs the orchestrator).
func (s *Server) handleDryRunRaw(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeSubmitBody(w, r)
	if !ok {
		return
	}
	rep, err := s.orch.DryRun(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

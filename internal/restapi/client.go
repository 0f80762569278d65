package restapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"repro/internal/core"
	"repro/internal/intent"
	"repro/internal/slice"
	"repro/internal/transport"
)

// Client is the typed HTTP client for Server, used by cmd/slicectl and any
// external tooling.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

// NewClient returns a client for the base URL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTPClient: http.DefaultClient}
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// apiError decodes the server's error envelope.
type apiError struct {
	Status int
	Msg    string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("restapi: server returned %d: %s", e.Status, e.Msg)
}

// responseError decodes an error response's envelope; a body that is not one
// (the mux's own 404) falls back to the status line.
func responseError(resp *http.Response) error {
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		eb.Error = resp.Status
	}
	return &apiError{Status: resp.StatusCode, Msg: eb.Error}
}

// do performs a request and decodes the JSON response into out (unless nil).
func (c *Client) do(method, path string, in, out any) error {
	return c.doHeaders(method, path, nil, in, out)
}

// doHeaders is do with extra request headers (e.g. Idempotency-Key).
func (c *Client) doHeaders(method, path string, hdr http.Header, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("restapi: encode request: %w", err)
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return responseError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// idemHeader carries a non-empty Idempotency-Key; nil for an empty key.
func idemHeader(key string) http.Header {
	if key == "" {
		return nil
	}
	return http.Header{"Idempotency-Key": []string{key}}
}

// Health checks /healthz.
//
// Kept: the integration live smoke waits for the daemon with it.
func (c *Client) Health() error {
	return c.do(http.MethodGet, "/healthz", nil, nil)
}

// SubmitSlice posts a slice request and returns the resulting snapshot
// (state "installing" or "rejected" with the reason filled in). A non-empty
// idempotencyKey deduplicates retries: resubmitting with the same key returns
// the same slice instead of creating another.
func (c *Client) SubmitSlice(body SliceRequestBody, idempotencyKey string) (slice.Snapshot, error) {
	var snap slice.Snapshot
	err := c.doHeaders(http.MethodPost, "/api/v2/slices", idemHeader(idempotencyKey), body, &snap)
	return snap, err
}

// ListSlices fetches one filtered page of slice snapshots; continue with
// NextPageToken. The zero ListQuery lists everything in one page.
func (c *Client) ListSlices(q ListQuery) (core.ListPage, error) {
	path := "/api/v2/slices"
	if v := q.values(); len(v) > 0 {
		path += "?" + v.Encode()
	}
	var page core.ListPage
	err := c.do(http.MethodGet, path, nil, &page)
	return page, err
}

// GetSlice fetches one slice.
func (c *Client) GetSlice(id slice.ID) (slice.Snapshot, error) {
	var snap slice.Snapshot
	err := c.do(http.MethodGet, "/api/v2/slices/"+url.PathEscape(string(id)), nil, &snap)
	return snap, err
}

// DeleteSlice tears a slice down.
func (c *Client) DeleteSlice(id slice.ID) error {
	return c.do(http.MethodDelete, "/api/v2/slices/"+url.PathEscape(string(id)), nil, nil)
}

// RecordDemand feeds a live demand sample for a slice.
func (c *Client) RecordDemand(id slice.ID, mbps float64) error {
	return c.do(http.MethodPost, "/api/v2/slices/"+url.PathEscape(string(id))+"/demand", DemandBody{Mbps: mbps}, nil)
}

// Gain fetches the gains-vs-penalties report.
func (c *Client) Gain() (core.GainReport, error) {
	var g core.GainReport
	err := c.do(http.MethodGet, "/api/v2/gain", nil, &g)
	return g, err
}

// Topology fetches the transport link table.
func (c *Client) Topology() ([]transport.LinkSnapshot, error) {
	var out []transport.LinkSnapshot
	err := c.do(http.MethodGet, "/api/v2/topology", nil, &out)
	return out, err
}

func linkPath(from, to, op string) string {
	return "/api/v2/links/" + url.PathEscape(from) + "/" + url.PathEscape(to) + "/" + op
}

// FailLink takes the directed link down; the orchestrator re-routes or
// drops the affected slices and reports the outcome.
func (c *Client) FailLink(from, to string) (core.RestorationReport, error) {
	var rep core.RestorationReport
	err := c.do(http.MethodPost, linkPath(from, to, "fail"), struct{}{}, &rep)
	return rep, err
}

// RestoreLink brings the directed link back up.
func (c *Client) RestoreLink(from, to string) error {
	return c.do(http.MethodPost, linkPath(from, to, "restore"), struct{}{}, nil)
}

// DegradeLink rescales the directed link's capacity (rain-fade injection);
// oversubscribed slices are re-routed or shrunk.
func (c *Client) DegradeLink(from, to string, capacityMbps float64) (core.RestorationReport, error) {
	var rep core.RestorationReport
	err := c.do(http.MethodPost, linkPath(from, to, "degrade"), LinkOpBody{CapacityMbps: capacityMbps}, &rep)
	return rep, err
}

// ListQuery filters and paginates ListSlices; the zero value lists
// everything in one page.
type ListQuery struct {
	State      string
	Tenant     string
	RejectCode slice.RejectCode
	Limit      int
	PageToken  string
}

func (q ListQuery) values() url.Values {
	v := url.Values{}
	if q.State != "" {
		v.Set("state", q.State)
	}
	if q.Tenant != "" {
		v.Set("tenant", q.Tenant)
	}
	if q.RejectCode != "" {
		v.Set("reject_code", string(q.RejectCode))
	}
	if q.Limit > 0 {
		v.Set("limit", fmt.Sprint(q.Limit))
	}
	if q.PageToken != "" {
		v.Set("page_token", q.PageToken)
	}
	return v
}

// --- intent plane (templates / fleets / rollouts) ---

// templatePath builds the /api/v2/templates/{name}/{version} path.
func templatePath(name string, version int, suffix string) string {
	return fmt.Sprintf("/api/v2/templates/%s/%d%s", url.PathEscape(name), version, suffix)
}

// CreateTemplate registers a new draft template version.
func (c *Client) CreateTemplate(body TemplateBody) (intent.Template, error) {
	var t intent.Template
	err := c.do(http.MethodPost, "/api/v2/templates", body, &t)
	return t, err
}

// ListTemplates fetches every template version.
func (c *Client) ListTemplates() ([]intent.Template, error) {
	var ts []intent.Template
	err := c.do(http.MethodGet, "/api/v2/templates", nil, &ts)
	return ts, err
}

// GetTemplate fetches one template version.
func (c *Client) GetTemplate(name string, version int) (intent.Template, error) {
	var t intent.Template
	err := c.do(http.MethodGet, templatePath(name, version, ""), nil, &t)
	return t, err
}

// UpdateTemplate replaces a draft version in place.
func (c *Client) UpdateTemplate(name string, version int, body TemplateBody) (intent.Template, error) {
	var t intent.Template
	err := c.do(http.MethodPut, templatePath(name, version, ""), body, &t)
	return t, err
}

// PublishTemplate promotes a draft through the publish guardrails.
func (c *Client) PublishTemplate(name string, version int) (intent.Template, error) {
	var t intent.Template
	err := c.do(http.MethodPost, templatePath(name, version, "/publish"), nil, &t)
	return t, err
}

// DryRunTemplate runs the server-side feasibility chain for one (tenant,
// region) cell of the template without reserving anything.
func (c *Client) DryRunTemplate(name string, version int, tenant, region string) (core.DryRunReport, error) {
	var rep core.DryRunReport
	err := c.do(http.MethodPost, templatePath(name, version, "/dryrun"), DryRunBody{Tenant: tenant, Region: region}, &rep)
	return rep, err
}

// Instantiate bulk-creates a fleet from a published template. A non-empty
// idempotencyKey deduplicates retries.
func (c *Client) Instantiate(body InstantiateBody, idempotencyKey string) (intent.Fleet, error) {
	var f intent.Fleet
	err := c.doHeaders(http.MethodPost, "/api/v2/fleets", idemHeader(idempotencyKey), body, &f)
	return f, err
}

// ListFleets fetches every fleet.
func (c *Client) ListFleets() ([]intent.Fleet, error) {
	var fs []intent.Fleet
	err := c.do(http.MethodGet, "/api/v2/fleets", nil, &fs)
	return fs, err
}

// GetFleet fetches one fleet.
func (c *Client) GetFleet(id string) (intent.Fleet, error) {
	var f intent.Fleet
	err := c.do(http.MethodGet, "/api/v2/fleets/"+url.PathEscape(id), nil, &f)
	return f, err
}

// StartRollout begins a canary rollout. A non-empty idempotencyKey
// deduplicates retries.
func (c *Client) StartRollout(body RolloutBody, idempotencyKey string) (intent.Rollout, error) {
	var ro intent.Rollout
	err := c.doHeaders(http.MethodPost, "/api/v2/rollouts", idemHeader(idempotencyKey), body, &ro)
	return ro, err
}

// ListRollouts fetches every rollout.
func (c *Client) ListRollouts() ([]intent.Rollout, error) {
	var rs []intent.Rollout
	err := c.do(http.MethodGet, "/api/v2/rollouts", nil, &rs)
	return rs, err
}

// GetRollout fetches one rollout.
func (c *Client) GetRollout(id string) (intent.Rollout, error) {
	var ro intent.Rollout
	err := c.do(http.MethodGet, "/api/v2/rollouts/"+url.PathEscape(id), nil, &ro)
	return ro, err
}

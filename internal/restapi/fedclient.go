package restapi

// Typed client methods for the /api/v2/federation/ surface, used by
// cmd/slicectl --cluster and the federation example.

import (
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/federation"
	"repro/internal/slice"
)

// FedClusters fetches the federation registry view.
func (c *Client) FedClusters() ([]federation.ClusterInfo, error) {
	var out []federation.ClusterInfo
	err := c.do(http.MethodGet, "/api/v2/federation/clusters", nil, &out)
	return out, err
}

// SubmitSpan posts a federated slice request. A non-empty idempotencyKey
// deduplicates retries: resubmitting with the same key replays the same
// span instead of creating another.
func (c *Client) SubmitSpan(body FedSliceRequestBody, idempotencyKey string) (federation.SpanStatus, error) {
	var st federation.SpanStatus
	err := c.doHeaders(http.MethodPost, "/api/v2/federation/slices", idemHeader(idempotencyKey), body, &st)
	return st, err
}

// ListSpans fetches the live federated spans in submission order.
func (c *Client) ListSpans() ([]federation.SpanStatus, error) {
	var out []federation.SpanStatus
	err := c.do(http.MethodGet, "/api/v2/federation/slices", nil, &out)
	return out, err
}

// GetSpan fetches one federated span.
func (c *Client) GetSpan(id slice.ID) (federation.SpanStatus, error) {
	var st federation.SpanStatus
	err := c.do(http.MethodGet, "/api/v2/federation/slices/"+url.PathEscape(string(id)), nil, &st)
	return st, err
}

// DeleteSpan tears a federated span down across all its member legs.
func (c *Client) DeleteSpan(id slice.ID) error {
	return c.do(http.MethodDelete, "/api/v2/federation/slices/"+url.PathEscape(string(id)), nil, nil)
}

// ExplainPlacement dry-runs federated placement for the request without
// reserving anything.
func (c *Client) ExplainPlacement(body FedSliceRequestBody) (federation.PlacementExplain, error) {
	var ex federation.PlacementExplain
	err := c.do(http.MethodPost, "/api/v2/federation/placement/explain", body, &ex)
	return ex, err
}

// FedEvents fetches the merged cluster-tagged lifecycle stream (the most
// recent limit events overall; 0 uses the server default).
func (c *Client) FedEvents(limit int) ([]federation.ClusterEvent, error) {
	path := "/api/v2/federation/events"
	if limit > 0 {
		path += "?limit=" + strconv.Itoa(limit)
	}
	var out []federation.ClusterEvent
	err := c.do(http.MethodGet, path, nil, &out)
	return out, err
}

// FedGain fetches the federation-wide aggregated gain report plus the
// per-member reports.
func (c *Client) FedGain() (FedGainResponse, error) {
	var out FedGainResponse
	err := c.do(http.MethodGet, "/api/v2/federation/gain", nil, &out)
	return out, err
}

// FedStats fetches the federation-tier placement counters.
func (c *Client) FedStats() (federation.Stats, error) {
	var out federation.Stats
	err := c.do(http.MethodGet, "/api/v2/federation/stats", nil, &out)
	return out, err
}

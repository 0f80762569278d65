package restapi

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/federation"
)

// Client calls that only the suites make: slicectl reads none of these
// endpoints.

// LastEpoch fetches the snapshot published by the most recent control epoch
// (GET /api/v2/epoch). Errors with a 404 envelope until the first epoch
// completes.
func (c *Client) LastEpoch() (core.EpochSnapshot, error) {
	var snap core.EpochSnapshot
	err := c.do(http.MethodGet, "/api/v2/epoch", nil, &snap)
	return snap, err
}

// Metrics fetches the latest value of every series.
func (c *Client) Metrics() (map[string]float64, error) {
	var out map[string]float64
	err := c.do(http.MethodGet, "/api/v2/metrics", nil, &out)
	return out, err
}

// MetricSeries fetches one series (window = number of most recent samples,
// 0 for all stored). Each "/"-separated segment of the name is escaped, so a
// name holding '?', '#', '%' or a space reaches the server intact.
func (c *Client) MetricSeries(name string, window int) (SeriesResponse, error) {
	segs := strings.Split(name, "/")
	for i, seg := range segs {
		segs[i] = url.PathEscape(seg)
	}
	path := "/api/v2/metrics/" + strings.Join(segs, "/")
	if window > 0 {
		path += fmt.Sprintf("?window=%d", window)
	}
	var out SeriesResponse
	err := c.do(http.MethodGet, path, nil, &out)
	return out, err
}

// DryRunSlice runs the feasibility chain for a raw slice request.
func (c *Client) DryRunSlice(body SliceRequestBody) (core.DryRunReport, error) {
	var rep core.DryRunReport
	err := c.do(http.MethodPost, "/api/v2/dryrun", body, &rep)
	return rep, err
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

// FedStats fetches the federation-tier placement counters.
func (c *Client) FedStats() (federation.Stats, error) {
	var out federation.Stats
	err := c.do(http.MethodGet, "/api/v2/federation/stats", nil, &out)
	return out, err
}

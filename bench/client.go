package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/restapi"
	"repro/internal/slice"
)

// requestPool is the seeded request mix: every workload cycles through it,
// so the SUT sees only generated inputs and the same seed replays the same
// sequence.
type requestPool struct {
	bodies [][]byte        // JSON bodies for POST /api/v2/slices
	reqs   []slice.Request // the same requests for the direct pass
}

const poolSize = 1024

func newRequestPool(seed int64) *requestPool {
	rng := rand.New(rand.NewSource(seed))
	classes := []string{"eMBB", "automotive", "e-health", "mMTC"}
	p := &requestPool{}
	for i := 0; i < poolSize; i++ {
		body := restapi.SliceRequestBody{
			Tenant:          fmt.Sprintf("tenant-%02d", rng.Intn(16)),
			DurationSeconds: 3600,
			MaxLatencyMs:    []float64{20, 50}[rng.Intn(2)],
			ThroughputMbps:  []float64{1, 2, 4}[rng.Intn(3)],
			PriceEUR:        float64(5 + rng.Intn(20)),
			PenaltyEUR:      1,
			Class:           classes[rng.Intn(len(classes))],
		}
		p.add(body)
	}
	return p
}

func (p *requestPool) add(body restapi.SliceRequestBody) {
	b, err := json.Marshal(body)
	if err != nil {
		panic(err) // a struct of strings and finite floats always encodes
	}
	req, err := body.Request()
	if err != nil {
		panic(err) // class names above are the ones restapi parses
	}
	p.bodies = append(p.bodies, b)
	p.reqs = append(p.reqs, req)
}

// fixedPool is a pool holding one request of the given size, for set-up
// populations and the reject storm.
func fixedPool(tenant string, mbps float64) *requestPool {
	p := &requestPool{}
	p.add(restapi.SliceRequestBody{
		Tenant: tenant, DurationSeconds: 360000, MaxLatencyMs: 50,
		ThroughputMbps: mbps, PriceEUR: 10, PenaltyEUR: 1,
	})
	return p
}

// client is one closed-loop HTTP/1.1 keep-alive connection.
type client struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer // response body of the last call
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole answer into c.buf, returning the
// status and the time from first byte sent to last byte read.
func (c *client) do(method, path string, body []byte) (int, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	return resp.StatusCode, lat, err
}

// submitReply is the part of a slice snapshot the checks read.
type submitReply struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	RejectCode string `json:"reject_code"`
}

// submit POSTs one slice request and decodes the reply.
func (c *client) submit(body []byte) (submitReply, int, time.Duration, error) {
	status, lat, err := c.do(http.MethodPost, "/api/v2/slices", body)
	if err != nil {
		return submitReply{}, status, lat, err
	}
	var r submitReply
	err = json.Unmarshal(c.buf.Bytes(), &r)
	return r, status, lat, err
}

// admit submits and requires a 202 "installing" answer.
func (c *client) admit(body []byte) (string, time.Duration, error) {
	r, status, lat, err := c.submit(body)
	if err != nil {
		return "", lat, err
	}
	if status != http.StatusAccepted || r.State != "installing" || r.ID == "" {
		return "", lat, fmt.Errorf("submit: status %d state %q code %q, want 202 installing", status, r.State, r.RejectCode)
	}
	return r.ID, lat, nil
}

// remove DELETEs a slice and requires a 200.
func (c *client) remove(id string) (time.Duration, error) {
	status, lat, err := c.do(http.MethodDelete, "/api/v2/slices/"+id, nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("delete %s: status %d", id, status)
	}
	return lat, err
}

// ---------------------------------------------------------------------------
// SSE consumer.

// sseSample is one received frame: when it arrived and how long after the
// orchestrator stamped the event.
type sseSample struct {
	at  time.Time
	lag time.Duration
}

// sseWatch holds GET /api/v2/events open on its own connection and records
// the delivery lag of every frame. Its fields are read after stop returns.
type sseWatch struct {
	samples []sseSample
	frames  int
	bytes   int64
	gaps    int // sequence discontinuities
	resyncs int
	err     error

	cancel context.CancelFunc
	wg     sync.WaitGroup
	ready  chan struct{}
}

func startSSE(base string) *sseWatch {
	ctx, cancel := context.WithCancel(context.Background())
	w := &sseWatch{cancel: cancel, ready: make(chan struct{}), samples: make([]sseSample, 0, 1<<18)}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		w.err = w.run(ctx, base)
	}()
	return w
}

func (w *sseWatch) run(ctx context.Context, base string) error {
	hc := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer hc.CloseIdleConnections()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v2/events", nil)
	if err != nil {
		close(w.ready)
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		close(w.ready)
		return err
	}
	defer resp.Body.Close()
	close(w.ready) // headers are back: the subscription is positioned
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: status %d", resp.StatusCode)
	}
	rd := bufio.NewReaderSize(resp.Body, 64<<10)
	var last int64
	for {
		line, err := rd.ReadSlice('\n')
		if err != nil {
			if ctx.Err() != nil {
				return nil // stopped by us
			}
			return err
		}
		w.bytes += int64(len(line))
		data, ok := bytes.CutPrefix(line, []byte("data: "))
		if !ok {
			continue
		}
		at := time.Now()
		var ev core.Event
		if err := json.Unmarshal(data, &ev); err != nil {
			return fmt.Errorf("events: bad frame %q: %w", data, err)
		}
		w.frames++
		if ev.Type == core.EventResync {
			w.resyncs++
		} else if last != 0 && ev.Seq != last+1 {
			w.gaps++
		}
		last = ev.Seq
		w.samples = append(w.samples, sseSample{at: at, lag: at.Sub(ev.Time)})
	}
}

// stop ends the stream and waits for the reader to exit.
func (w *sseWatch) stop() {
	w.cancel()
	w.wg.Wait()
}

// idCount counts the slice snapshots in a list page without decoding it.
func idCount(page []byte) int { return bytes.Count(page, []byte(`"id":"s-`)) }

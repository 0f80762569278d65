package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/restapi"
	"repro/internal/slice"
)

// reference is a fixed piece of work with the ingredients of a request — a
// POST over loopback HTTP/1.1 keep-alive to a standard-library server whose
// handler decodes a slice request and encodes a slice snapshot — timed
// beside the measured operations. It runs none of the repository's code
// paths under test (its own listener, mux-less handler and client), so how
// long it takes says how fast the host is right now, not how fast the SUT
// is.
type reference struct {
	srv    *http.Server
	served chan error
	hc     *http.Client
	url    string
	body   []byte
}

func newReference() (*reference, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	snap := slice.Snapshot{ID: "s-1", Tenant: "tenant-01", Class: "eMBB", State: "installing"}
	r := &reference{
		served: make(chan error, 1),
		hc:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
		url:    "http://" + ln.Addr().String() + "/",
		body:   fixedPool("reference", 2).bodies[0],
	}
	r.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var in restapi.SliceRequestBody
		if err := json.NewDecoder(req.Body).Decode(&in); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(snap)
	})}
	go func() { r.served <- r.srv.Serve(ln) }()
	return r, nil
}

// refNominal is what one reference request takes on the authoring box when
// nothing else runs on the host. It only fixes the scale: the same constant
// divides every run.
const refNominal = 45 * time.Microsecond

// refBurst is how many reference requests one sample of the host speed
// makes, and refEvery how often a window takes one: about 1.5 % of the time.
const (
	refBurst = 32
	refEvery = 100 * time.Millisecond
)

// pacer samples the host speed every refEvery while a stretch of work runs,
// and keeps the time the reference took out of that stretch's accounts. With
// a nil reference (the traced run) it does nothing and reports speed 1.
type pacer struct {
	ref       *reference
	next      time.Time
	samples   []float64
	wall, cpu time.Duration // spent on reference requests
}

// tick takes a sample if one is due at now.
func (p *pacer) tick(now time.Time) error {
	if p.ref == nil || now.Before(p.next) {
		return nil
	}
	cpu0 := cpuTime()
	per, err := p.ref.burst(refBurst)
	if err != nil {
		return fmt.Errorf("reference request: %w", err)
	}
	p.samples = append(p.samples, float64(refNominal)/float64(per))
	done := time.Now()
	p.wall += done.Sub(now)
	p.cpu += cpuTime() - cpu0
	p.next = done.Add(refEvery)
	return nil
}

// speed is the median sample: 1 when the reference takes refNominal, below
// 1 on a slower host.
func (p *pacer) speed() float64 {
	if len(p.samples) == 0 {
		return 1
	}
	return median(p.samples)
}

// burst performs n reference requests and returns the time per request.
func (r *reference) burst(n int) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		resp, err := r.hc.Post(r.url, "application/json", bytes.NewReader(r.body))
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(n), nil
}

func (r *reference) close() error {
	r.hc.CloseIdleConnections()
	err := r.srv.Close()
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/monitor"
	"repro/internal/slice"
	"repro/internal/wal"
)

// The traced run records one span around every call that crosses a public
// seam: the API handler (restapi), every ctrl.Domain verb (ctrl.<domain>)
// and every core.Sink call (wal). core has no seam of its own between
// restapi and ctrl/wal, so its share is derived: a restapi span minus the
// matching direct core call is restapi's own time, the direct core call
// minus the part its ctrl and wal children cover is core's own time.

// span is one timed call. id ties spans of one request together where the
// seam exposes one: the handler's request counter, the slice's sequence
// number (from Tx.Slice) or the record sequence.
type span struct {
	name       string
	parent     string // enclosing seam in the fixed nesting restapi ⊃ core ⊃ {ctrl, wal}
	id         uint64
	start, end int64 // ns since tracer.t0
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in a pre-sized buffer; spans beyond its capacity are
// counted as dropped, never grown into, so recording costs one atomic add
// and one store.
type tracer struct {
	t0      time.Time
	buf     []span
	n       atomic.Int64
	reqs    atomic.Uint64 // handler request counter
	served  atomic.Uint64 // handler spans recorded
	streams atomic.Int64  // SSE handlers currently open
	walSize atomic.Int64  // framed bytes appended through the sink
	rejects [3]atomic.Int64
	staged  atomic.Int64 // StageCommit steps run (group-commit path alive)
	direct  atomic.Int64 // Committed calls (the un-staged fallback)
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), buf: make([]span, capacity)}
}

func (t *tracer) rec(name, parent string, id uint64, start time.Time) {
	end := time.Now()
	if i := t.n.Add(1) - 1; int(i) < len(t.buf) {
		t.buf[i] = span{name: name, parent: parent, id: id, start: int64(start.Sub(t.t0)), end: int64(end.Sub(t.t0))}
	}
}

// spans returns what was recorded and how many spans did not fit.
func (t *tracer) spans() ([]span, int) {
	n := int(t.n.Load())
	if n > len(t.buf) {
		return t.buf, n - len(t.buf)
	}
	return t.buf[:n], 0
}

// reset forgets everything recorded so far (set-up and warm-up spans).
func (t *tracer) reset() {
	t.n.Store(0)
	t.walSize.Store(0)
	t.staged.Store(0)
	t.direct.Store(0)
	for i := range t.rejects {
		t.rejects[i].Store(0)
	}
}

// writeJSONL dumps the spans, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	sp, _ := t.spans()
	for _, s := range sp {
		err = enc.Encode(struct {
			Name   string `json:"name"`
			Parent string `json:"parent"`
			ID     uint64 `json:"id"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{s.name, s.parent, s.id, s.start, s.end})
		if err != nil {
			break
		}
	}
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---------------------------------------------------------------------------
// restapi seam: http.Handler wrapper.

// routeName maps a request onto the span name of its route.
func routeName(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/api/v2/slices" && r.Method == http.MethodPost:
		return "restapi.submit"
	case p == "/api/v2/slices" && r.Method == http.MethodGet:
		return "restapi.list"
	case strings.HasPrefix(p, "/api/v2/slices/") && r.Method == http.MethodDelete:
		return "restapi.delete"
	case strings.HasPrefix(p, "/api/v2/slices/") && r.Method == http.MethodGet:
		return "restapi.get"
	case p == "/api/v1/gain":
		return "restapi.gain"
	case p == "/api/v2/events":
		return "restapi.sse"
	}
	return "restapi.other"
}

func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := routeName(r)
		if name == "restapi.sse" {
			t.streams.Add(1)
			defer t.streams.Add(-1)
		}
		id := t.reqs.Add(1)
		start := time.Now()
		h.ServeHTTP(w, r)
		t.rec(name, "nethttp", id, start)
		t.served.Add(1)
	})
}

// quiesce waits until every handler that was entered has recorded its span,
// open SSE streams aside. A response reaches the client only after its
// handler returned, so this seldom waits; what it adds is the ordering of
// the handlers' buffer writes before the reader's reads.
func (t *tracer) quiesce() {
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
		if int64(t.reqs.Load()-t.served.Load()) <= t.streams.Load() {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// ctrl seam: ctrl.Set.Wrap decorator.

var domainIndex = map[string]int{"ran": 0, "transport": 1, "cloud": 2}

// tracedDomain times every transactional verb of one domain and forwards
// the monitoring surface untouched.
type tracedDomain struct {
	inner ctrl.Domain
	t     *tracer
	idx   int // domainIndex, -1 for domains the report does not name
	// Span names "ctrl.<domain>.<verb>", built once.
	feasible, reserve, commit, abort, resize, release string
}

func (d *tracedDomain) Domain() string       { return d.inner.Domain() }
func (d *tracedDomain) Utilization() float64 { return d.inner.Utilization() }
func (d *tracedDomain) PushTelemetry(store *monitor.Store, now time.Time) {
	d.inner.PushTelemetry(store, now)
}

// sliceSeq extracts n from a slice ID of the form "s-n" (0 if malformed).
func sliceSeq(id slice.ID) uint64 {
	if len(id) < 3 {
		return 0
	}
	n, _ := strconv.ParseUint(string(id[2:]), 10, 64)
	return n
}

func (d *tracedDomain) reject(c *slice.RejectionCause) {
	if c != nil && d.idx >= 0 {
		d.t.rejects[d.idx].Add(1)
	}
}

func (d *tracedDomain) Feasible(tx ctrl.Tx) *slice.RejectionCause {
	start := time.Now()
	c := d.inner.Feasible(tx)
	d.t.rec(d.feasible, "core", sliceSeq(tx.Slice), start)
	d.reject(c)
	return c
}

func (d *tracedDomain) Reserve(tx ctrl.Tx) (ctrl.Grant, *slice.RejectionCause) {
	start := time.Now()
	g, c := d.inner.Reserve(tx)
	d.t.rec(d.reserve, "core", sliceSeq(tx.Slice), start)
	d.reject(c)
	return g, c
}

func (d *tracedDomain) Commit(g ctrl.Grant) error {
	start := time.Now()
	err := d.inner.Commit(g)
	d.t.rec(d.commit, "core", 0, start)
	return err
}

func (d *tracedDomain) Abort(g ctrl.Grant) {
	start := time.Now()
	d.inner.Abort(g)
	d.t.rec(d.abort, "core", 0, start)
}

func (d *tracedDomain) Resize(tx ctrl.Tx, mbps float64) (ctrl.Grant, error) {
	start := time.Now()
	g, err := d.inner.Resize(tx, mbps)
	d.t.rec(d.resize, "core", sliceSeq(tx.Slice), start)
	return g, err
}

func (d *tracedDomain) Release(id slice.ID, p slice.PLMN) {
	start := time.Now()
	d.inner.Release(id, p)
	d.t.rec(d.release, "core", sliceSeq(id), start)
}

// The optional capabilities are advertised only when the wrapped domain has
// them: core switches the feasibility memo on by the FeasVersioner type
// assertion and deducts LatencyContributor shares from every latency
// budget, so a decorator that hid either would change the SUT, and one that
// invented either would too.
type (
	domainFV struct {
		*tracedDomain
		ctrl.FeasVersioner
	}
	domainLC struct {
		*tracedDomain
		ctrl.LatencyContributor
	}
	domainFVLC struct {
		*tracedDomain
		ctrl.FeasVersioner
		ctrl.LatencyContributor
	}
)

// wrapDomain is the ctrl.Set.Wrap decoration of the traced run.
func (t *tracer) wrapDomain(d ctrl.Domain) ctrl.Domain {
	idx, ok := domainIndex[d.Domain()]
	if !ok {
		idx = -1
	}
	p := "ctrl." + d.Domain() + "."
	td := &tracedDomain{inner: d, t: t, idx: idx,
		feasible: p + "feasible", reserve: p + "reserve", commit: p + "commit",
		abort: p + "abort", resize: p + "resize", release: p + "release"}
	fv, hasFV := d.(ctrl.FeasVersioner)
	lc, hasLC := d.(ctrl.LatencyContributor)
	switch {
	case hasFV && hasLC:
		return domainFVLC{td, fv, lc}
	case hasFV:
		return domainFV{td, fv}
	case hasLC:
		return domainLC{td, lc}
	}
	return td
}

// ---------------------------------------------------------------------------
// wal seam: core.Sink decorator.

type tracedSink struct {
	core.Sink
	t *tracer
}

func (s tracedSink) Append(rec wal.Record) error {
	start := time.Now()
	err := s.Sink.Append(rec)
	s.t.rec("wal.append", "core", rec.Seq, start)
	// Frame: u32 length + u32 crc + u64 seq + u8 type length + type + payload.
	s.t.walSize.Add(int64(8 + 8 + 1 + len(rec.Type) + len(rec.Payload)))
	return err
}

func (s tracedSink) Committed() error {
	start := time.Now()
	err := s.Sink.Committed()
	s.t.rec("wal.sync", "core", 0, start)
	s.t.direct.Add(1)
	return err
}

func (s tracedSink) Snapshot(seq uint64, blob []byte) error {
	start := time.Now()
	err := s.Sink.Snapshot(seq, blob)
	s.t.rec("wal.snapshot", "core", seq, start)
	return err
}

// tracedStagedSink keeps the group-commit fast path: without StageCommit
// core falls back to fsyncing under the persistence mutex.
type tracedStagedSink struct {
	tracedSink
	staged core.StagedSink
}

func (s tracedStagedSink) StageCommit() func() error {
	step := s.staged.StageCommit()
	return func() error {
		start := time.Now()
		err := step()
		s.t.rec("wal.sync", "core", 0, start)
		s.t.staged.Add(1)
		return err
	}
}

// wrapSink decorates a persistence sink, preserving StagedSink.
func (t *tracer) wrapSink(s core.Sink) core.Sink {
	ts := tracedSink{Sink: s, t: t}
	if st, ok := s.(core.StagedSink); ok {
		return tracedStagedSink{tracedSink: ts, staged: st}
	}
	return ts
}

// ---------------------------------------------------------------------------
// Analysis.

// spanStats groups span durations (ns) by name, each ascending.
func spanStats(sp []span) map[string][]int64 {
	by := make(map[string][]int64)
	for _, s := range sp {
		by[s.name] = append(by[s.name], s.dur())
	}
	for _, v := range by {
		slices.Sort(v)
	}
	return by
}

// medianUs is the nearest-rank median of ascending ns samples, in µs.
func medianUs(sorted []int64) float64 {
	v, _ := percentile(sorted, 0.5)
	return float64(v) / 1e3
}

// coverage returns, for every span named parent, how many ns of it the
// ctrl.* and wal.* spans inside its interval cover (the union of their
// intervals: the cloud reserve runs concurrently with the ran→transport
// chain, and overlapping time is covered once) and how many ns are left —
// the span's self time. Both are ascending.
func coverage(sp []span, parent string) (covered, self []int64) {
	var kids, parents []span
	for _, s := range sp {
		switch {
		case s.name == parent:
			parents = append(parents, s)
		case s.parent == "core":
			kids = append(kids, s)
		}
	}
	if len(parents) == 0 {
		return nil, nil // epoch_1k: a million resize spans and no handler
	}
	byStart := func(a, b span) int { return int(a.start - b.start) }
	slices.SortFunc(kids, byStart)
	slices.SortFunc(parents, byStart)
	k := 0
	for _, p := range parents {
		for k < len(kids) && kids[k].end <= p.start {
			k++
		}
		var c int64
		upTo := p.start
		for j := k; j < len(kids) && kids[j].start < p.end; j++ {
			lo, hi := max(kids[j].start, upTo), min(kids[j].end, p.end)
			if hi > lo {
				c += hi - lo
				upTo = hi
			}
		}
		covered = append(covered, c)
		self = append(self, p.dur()-c)
	}
	slices.Sort(covered)
	slices.Sort(self)
	return covered, self
}

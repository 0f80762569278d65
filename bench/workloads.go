package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/slice"
	"repro/internal/testbed"
	"repro/internal/traffic"
	"repro/internal/wal"
)

// runConfig sizes one run. defaultConfig is the declared benchmark; tests
// shrink the windows and populations.
type runConfig struct {
	seed      int64
	window    time.Duration // length of one measured window
	windows   int           // measured windows per run
	setupReps int           // set-ups timed per run (the last one is measured)
	scale     float64       // multiplies warm-up, traced and probe op counts
	standing  int           // poll_watch standing population
	epochPop  int           // epoch_1k standing population
	await     bool          // wait for the standing population to turn active
	dataRoot  string        // parent of the per-run data directories
	// ref samples the host speed beside the timed run; nil in the traced
	// run, whose numbers stay as measured.
	ref *reference
}

func defaultConfig() runConfig {
	return runConfig{
		seed: 1, window: 4 * time.Second, windows: 5, setupReps: 5, scale: 1,
		standing: 512, epochPop: 1024, await: true,
		dataRoot: filepath.Join("bench", ".data"),
	}
}

func (rc runConfig) ops(n int) int { return max(int(float64(n)*rc.scale), 8) }

// instance is one set-up workload. op performs one operation against the
// SUT, checks every answer and returns the latency to account it with; the
// instance records the latencies of the requests inside the operation
// itself.
type instance interface {
	op() (time.Duration, error)
	series() map[string]*series
	orch() *core.Orchestrator
	// finish runs after the last window: the output checks, and the
	// metrics only this workload has.
	finish(r *result, wins []winSpan)
	close() error
}

// winSpan is the wall-clock extent of one measured window and the host
// speed sampled inside it.
type winSpan struct {
	start, end time.Time
	speed      float64
}

// speedsOf lists the windows' host-speed factors for series.pct.
func speedsOf(wins []winSpan) []float64 {
	out := make([]float64, len(wins))
	for i, w := range wins {
		out[i] = w.speed
	}
	return out
}

// workload is one declared traffic mix.
type workload struct {
	name string
	why  string
	// setup builds the SUT and its standing population. final is false for
	// the timed-and-discarded set-ups. idle is time spent waiting on model
	// timers, which set-up time does not count.
	setup    func(rc runConfig, tr *tracer, final bool) (inst instance, idle time.Duration, err error)
	warmOps  int // untimed operations that end every set-up
	traceOps int // operations of the traced run
	// spansPerOp bounds the spans one operation records, to size the trace
	// buffer before the run.
	spansPerOp func(rc runConfig) int
	// direct runs the direct pass of the traced run: the same calls with no
	// HTTP and no decorators.
	direct func(rc runConfig, out map[string]float64) error
	// popSuffix names the registry size the direct pass ran at, as the
	// suffix of the core.*_us metrics it fills (".p0", ".p512").
	popSuffix string
	// gated workloads are the ones BENCHMARK.json declares; the others are
	// run, checked and reported the same way but held to no bound.
	gated bool
}

var workloads = []workload{
	{
		name: "churn_mem",
		why:  "admit+delete cycles without a WAL: restapi, core admission and the ctrl two-phase install do all the work, wal is bypassed",
		setup: func(rc runConfig, tr *tracer, _ bool) (instance, time.Duration, error) {
			return setupChurn(rc, tr, false)
		},
		warmOps: 4000, traceOps: 5000, spansPerOp: cycleSpans, gated: true,
		popSuffix: ".p0",
		direct:    func(rc runConfig, out map[string]float64) error { return coreProbe(rc, 0, false, false, ".p0", out) },
	},
	{
		name: "churn_durable",
		why:  "the same cycle on a file WAL with group commit: fsync dominates, so a codec/fsync change shows here and an HTTP change must not",
		setup: func(rc runConfig, tr *tracer, _ bool) (instance, time.Duration, error) {
			return setupChurn(rc, tr, true)
		},
		warmOps: 300, traceOps: 2000, spansPerOp: cycleSpans,
		popSuffix: ".p0",
		direct:    func(rc runConfig, out map[string]float64) error { return coreProbe(rc, 0, true, false, ".p0", out) },
	},
	{
		name:    "reject_storm",
		why:     "every request is refused at the saturated ledger: restapi dominates, ctrl Reserve and wal are never reached (the cost of saying no)",
		setup:   setupReject,
		warmOps: 8000, traceOps: 20000, spansPerOp: cycleSpans, gated: true,
		popSuffix: ".p0",
		direct:    func(rc runConfig, out map[string]float64) error { return coreProbe(rc, 0, false, true, ".p0", out) },
	},
	{
		name:    "poll_watch",
		why:     "list/get/gain reads and an SSE stream beside writes on 512 standing slices: read plane, event bus and registry-size scaling",
		setup:   setupPoll,
		warmOps: 600, traceOps: 1000, spansPerOp: cycleSpans, gated: true,
		popSuffix: ".p512",
		direct: func(rc runConfig, out map[string]float64) error {
			return coreProbe(rc, rc.standing, false, false, ".p512", out)
		},
	},
	{
		name:    "epoch_1k",
		why:     "the control loop itself on 1024 simulated slices, no HTTP and no WAL: forecast, RAN scheduling and ctrl Resize do the work",
		setup:   setupEpoch,
		warmOps: 8 * epochCheckAt, traceOps: 288, gated: true,
		// At most every slice is resized in every domain, every epoch.
		spansPerOp: func(rc runConfig) int { return 3*rc.epochPop + 64 },
		direct:     epochProbe,
	},
}

// cycleSpans bounds the spans of one HTTP operation: at most five handler
// spans, four verbs in each of three domains for the admit and the delete,
// and a handful of WAL calls.
func cycleSpans(runConfig) int { return 32 }

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---------------------------------------------------------------------------
// Shared HTTP plumbing.

// httpInst is the part every HTTP workload shares: a served SUT, one
// closed-loop client and the seeded request pool.
type httpInst struct {
	rc      runConfig
	s       *sut
	c       *client
	pool    *requestPool
	next    int
	ser     map[string]*series
	dataDir string
	// Baselines the churn checks compare against after the run.
	baseLive int
	baseLoad float64
	// Body sizes seen on the wire.
	submitReq, submitResp, listResp mean
}

// mean accumulates an average.
type mean struct{ sum, n float64 }

func (m *mean) add(v int) { m.sum += float64(v); m.n++ }

func (m mean) value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / m.n
}

const seriesCap = 1 << 20

func newHTTPInst(rc runConfig, spec sutSpec, names ...string) (*httpInst, error) {
	s, err := buildSUT(spec)
	if err != nil {
		return nil, err
	}
	if err := s.serve(); err != nil {
		return nil, err
	}
	h := &httpInst{rc: rc, s: s, c: newClient(s.base), pool: newRequestPool(rc.seed), ser: map[string]*series{}, dataDir: spec.dataDir}
	for _, n := range names {
		h.ser[n] = newSeries(seriesCap)
	}
	return h, nil
}

func (h *httpInst) series() map[string]*series { return h.ser }
func (h *httpInst) orch() *core.Orchestrator   { return h.s.orch }

func (h *httpInst) body() []byte {
	b := h.pool.bodies[h.next%len(h.pool.bodies)]
	h.next++
	return b
}

// admitNext submits the next pooled request and records its latency and
// body sizes.
func (h *httpInst) admitNext() (string, error) {
	body := h.body()
	id, lat, err := h.c.admit(body)
	if err != nil {
		return "", err
	}
	h.ser["submit"].add(lat)
	h.submitReq.add(len(body))
	h.submitResp.add(h.c.buf.Len())
	return id, nil
}

// wireSizes reports the mean body sizes for the per-layer table.
func (h *httpInst) wireSizes(r *result) {
	r.extra["restapi.submit_req_bytes"] = h.submitReq.value()
	r.extra["restapi.submit_resp_bytes"] = h.submitResp.value()
	r.extra["restapi.list_resp_bytes"] = h.listResp.value()
	r.extra["nethttp.submit_p50_us"] = h.ser["submit"].pct(0.50, 1e3, nil).v
}

// liveCount counts the slices holding resources (installing or active).
func (h *httpInst) liveCount() int {
	n := 0
	for _, snap := range h.s.orch.List() {
		switch snap.State {
		case "admitted", "installing", "active", "reconfiguring":
			n++
		}
	}
	return n
}

// markBaseline records what the population checks must find again.
func (h *httpInst) markBaseline() {
	h.baseLive, h.baseLoad = h.liveCount(), h.s.orch.LedgerLoad()
}

// checkBaseline verifies that churn left nothing behind: the standing
// population and the float capacity ledger are back where set-up left them.
// The population is counted as live slices, not ActiveCount: a standing
// slice admitted at set-up turns active 7.7 s later, inside the run.
func (h *httpInst) checkBaseline(r *result) {
	live, load := h.liveCount(), h.s.orch.LedgerLoad()
	r.check("population_restored", live == h.baseLive && h.s.orch.ActiveCount() <= live,
		"%d live slices (%d active), want %d", live, h.s.orch.ActiveCount(), h.baseLive)
	r.check("ledger_restored", math.Abs(load-h.baseLoad) <= 1e-9*math.Max(1, math.Abs(h.baseLoad)),
		"ledger load %.12g Mbps, want %.12g", load, h.baseLoad)
}

func (h *httpInst) close() error {
	h.c.close()
	err := h.s.close()
	if h.dataDir != "" {
		if rerr := os.RemoveAll(h.dataDir); err == nil {
			err = rerr
		}
	}
	return err
}

// ---------------------------------------------------------------------------
// churn_mem, churn_durable.

type churnInst struct {
	*httpInst
	durable bool
}

// newDataDir returns a fresh directory for one durable SUT and refuses a
// memory-backed filesystem.
func newDataDir(rc runConfig, name string) (string, error) {
	if err := os.MkdirAll(rc.dataRoot, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(rc.dataRoot, name+"-")
	if err != nil {
		return "", err
	}
	fs, volatile, err := fsType(dir)
	if err != nil {
		return "", err
	}
	if volatile {
		return "", fmt.Errorf("data dir %s is on %s: fsync is free there, a durable workload measures nothing", dir, fs)
	}
	return dir, nil
}

func setupChurn(rc runConfig, tr *tracer, durable bool) (instance, time.Duration, error) {
	cfg, tbCfg := liveSizing()
	spec := sutSpec{cfg: cfg, tbCfg: tbCfg, seed: rc.seed, tr: tr}
	if durable {
		dir, err := newDataDir(rc, "churn_durable")
		if err != nil {
			return nil, 0, err
		}
		spec.dataDir = dir
	}
	h, err := newHTTPInst(rc, spec, "submit", "delete")
	if err != nil {
		return nil, 0, err
	}
	h.markBaseline()
	return &churnInst{httpInst: h, durable: durable}, 0, nil
}

func (w *churnInst) op() (time.Duration, error) {
	start := time.Now()
	id, err := w.admitNext()
	if err != nil {
		return 0, err
	}
	lat, err := w.c.remove(id)
	if err != nil {
		return 0, err
	}
	w.ser["delete"].add(lat)
	return time.Since(start), nil
}

func (w *churnInst) finish(r *result, wins []winSpan) {
	speeds := speedsOf(wins)
	r.put("submit_p50_ms", "ms", w.ser["submit"].pct(0.50, 1e6, speeds))
	r.put("submit_p99_ms", "ms", w.ser["submit"].pct(0.99, 1e6, speeds))
	r.put("delete_p50_ms", "ms", w.ser["delete"].pct(0.50, 1e6, speeds))
	r.put("delete_p99_ms", "ms", w.ser["delete"].pct(0.99, 1e6, speeds))
	w.wireSizes(r)
	w.checkBaseline(r)
	st := w.s.orch.PersistStatus()
	if !w.durable {
		r.check("no_wal_records", st.LastSeq == 0 && !st.Enabled, "WAL enabled=%v last_seq=%d on a non-durable workload", st.Enabled, st.LastSeq)
		return
	}
	r.check("wal_healthy", st.Enabled && st.Error == "", "WAL enabled=%v error=%q", st.Enabled, st.Error)
	w.recoverCheck(r)
}

// recoverCheck leaves a few slices standing, shuts the SUT down cleanly,
// recovers a second orchestrator from the log the run wrote and requires it
// to reproduce the state digest and the live count.
func (w *churnInst) recoverCheck(r *result) {
	const keep = 8
	for i := 0; i < keep; i++ {
		if _, _, err := w.c.admit(w.body()); err != nil {
			r.check("recover_population", false, "%v", err)
			return
		}
	}
	w.s.orch.Shutdown()
	digest := string(w.s.orch.StateDigest())
	if err := w.s.close(); err != nil {
		r.check("wal_close", false, "%v", err)
		return
	}

	pace := pacer{ref: w.rc.ref}
	if err := pace.tick(time.Now()); err != nil {
		r.check("reference", false, "%v", err)
		return
	}
	start := time.Now()
	rec, err := wal.Load(w.dataDir)
	loaded := time.Now()
	if err != nil {
		r.check("wal_load", false, "%v", err)
		return
	}
	cfg, tbCfg := liveSizing()
	tb, err := testbed.New(tbCfg, rand.New(rand.NewSource(w.rc.seed)))
	if err != nil {
		r.check("recover_testbed", false, "%v", err)
		return
	}
	// A simulated clock: the timers recovery re-arms for the kept slices
	// must not fire on the wall clock after the run.
	orch, rep, err := core.RecoverFromWAL(cfg, tb, sim.NewSimulator(w.rc.seed), monitor.NewStore(8192), rec)
	done := time.Now()
	if err != nil {
		r.check("wal_replay", false, "%v", err)
		return
	}
	pace.next = done
	if err := pace.tick(done); err != nil {
		r.check("reference", false, "%v", err)
		return
	}
	n := float64(max(len(rec.Records), 1))
	per := us(done.Sub(start)) / n * pace.speed()
	r.put("recover_us_per_record", "us", stat{v: per, min: per, max: per, n: len(rec.Records)})
	r.extra["wal.load_us_per_record"] = us(loaded.Sub(start)) / n
	r.extra["core.replay_us_per_record"] = us(done.Sub(loaded)) / n
	r.extra["wal.log_bytes"] = float64(rec.LogBytes)
	r.check("recover_digest", string(orch.StateDigest()) == digest, "recovered state digest differs from the pre-shutdown digest (%d records replayed)", rep.Replayed)
	r.check("recover_live", rep.LiveSlices == keep, "recovered %d live slices, want %d", rep.LiveSlices, keep)
	r.check("recover_clean", rep.CleanShutdown && !rep.TornTail, "clean_shutdown=%v torn_tail=%v", rep.CleanShutdown, rep.TornTail)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ---------------------------------------------------------------------------
// reject_storm.

type rejectInst struct {
	*httpInst
	huge []byte
}

func setupReject(rc runConfig, tr *tracer, _ bool) (instance, time.Duration, error) {
	cfg, tbCfg := liveSizing()
	h, err := newHTTPInst(rc, sutSpec{cfg: cfg, tbCfg: tbCfg, seed: rc.seed, tr: tr}, "submit")
	if err != nil {
		return nil, 0, err
	}
	// Saturate the ledger: 100-Mbps slices until the first in-band reject.
	fill := fixedPool("filler", 100).bodies[0]
	for n := 0; ; n++ {
		rep, status, _, err := h.c.submit(fill)
		if err != nil {
			return nil, 0, err
		}
		if status == http.StatusOK && rep.State == "rejected" {
			break
		}
		if status != http.StatusAccepted || n > 4096 {
			return nil, 0, fmt.Errorf("saturating the ledger: status %d state %q after %d slices", status, rep.State, n)
		}
	}
	h.markBaseline()
	return &rejectInst{httpInst: h, huge: fixedPool("storm", 1<<20).bodies[0]}, 0, nil
}

func (w *rejectInst) op() (time.Duration, error) {
	rep, status, lat, err := w.c.submit(w.huge)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK || rep.State != "rejected" || !strings.HasSuffix(rep.RejectCode, "-capacity") {
		return 0, fmt.Errorf("reject: status %d state %q code %q, want 200 rejected *-capacity", status, rep.State, rep.RejectCode)
	}
	w.ser["submit"].add(lat)
	w.submitReq.add(len(w.huge))
	w.submitResp.add(w.c.buf.Len())
	return lat, nil
}

func (w *rejectInst) finish(r *result, wins []winSpan) {
	speeds := speedsOf(wins)
	r.put("submit_p50_ms", "ms", w.ser["submit"].pct(0.50, 1e6, speeds))
	r.put("submit_p99_ms", "ms", w.ser["submit"].pct(0.99, 1e6, speeds))
	w.wireSizes(r)
	w.checkBaseline(r)
	st := w.s.orch.PersistStatus()
	r.check("no_wal_records", st.LastSeq == 0, "last_seq=%d on a non-durable workload", st.LastSeq)
}

// ---------------------------------------------------------------------------
// poll_watch.

type pollInst struct {
	*httpInst
	sse      *sseWatch
	standing int
}

func setupPoll(rc runConfig, tr *tracer, final bool) (instance, time.Duration, error) {
	cfg, tbCfg := liveSizing()
	h, err := newHTTPInst(rc, sutSpec{cfg: cfg, tbCfg: tbCfg, seed: rc.seed, tr: tr}, "submit", "list", "get", "gain", "delete")
	if err != nil {
		return nil, 0, err
	}
	w := &pollInst{httpInst: h, standing: rc.standing}
	stand := fixedPool("standing", 2).bodies[0]
	for i := 0; i < rc.standing; i++ {
		if _, _, err := h.c.admit(stand); err != nil {
			return nil, 0, fmt.Errorf("standing slice %d: %w", i, err)
		}
	}
	var idle time.Duration
	if final && rc.await {
		// The population turns active when its vEPC boot timers fire
		// (7.7 s of model time on the wall clock), so the measured windows
		// see a stationary registry and no burst of 512 install events.
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := h.s.awaitActive(ctx, rc.standing)
		cancel()
		if err != nil {
			return nil, 0, err
		}
		idle = time.Since(start)
	}
	if final {
		w.sse = startSSE(h.s.base)
		<-w.sse.ready
	}
	h.markBaseline()
	return w, idle, nil
}

func (w *pollInst) op() (time.Duration, error) {
	start := time.Now()
	id, err := w.admitNext()
	if err != nil {
		return 0, err
	}

	status, lat, err := w.c.do(http.MethodGet, "/api/v2/slices?limit=50", nil)
	if err != nil {
		return 0, err
	}
	// The page is the 50 oldest slices: standing ones in the declared
	// configuration, fewer when a test shrinks the population.
	if n := idCount(w.c.buf.Bytes()); status != http.StatusOK || n > 50 || n < min(50, w.standing+1) {
		return 0, fmt.Errorf("list: status %d with %d slices, want 200 with %d", status, n, min(50, w.standing+1))
	}
	w.ser["list"].add(lat)
	w.listResp.add(w.c.buf.Len())

	status, lat, err = w.c.do(http.MethodGet, "/api/v2/slices/"+id, nil)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK || idCount(w.c.buf.Bytes()) != 1 {
		return 0, fmt.Errorf("get %s: status %d", id, status)
	}
	w.ser["get"].add(lat)

	status, lat, err = w.c.do(http.MethodGet, "/api/v1/gain", nil)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("gain: status %d", status)
	}
	w.ser["gain"].add(lat)

	lat, err = w.c.remove(id)
	if err != nil {
		return 0, err
	}
	w.ser["delete"].add(lat)
	return time.Since(start), nil
}

func (w *pollInst) finish(r *result, wins []winSpan) {
	speeds := speedsOf(wins)
	r.put("submit_p50_ms", "ms", w.ser["submit"].pct(0.50, 1e6, speeds))
	r.put("delete_p50_ms", "ms", w.ser["delete"].pct(0.50, 1e6, speeds))
	r.put("read_p50_ms", "ms", w.ser["list"].pct(0.50, 1e6, speeds))
	w.wireSizes(r)
	w.checkBaseline(r)
	st := w.s.orch.PersistStatus()
	r.check("no_wal_records", st.LastSeq == 0, "last_seq=%d on a non-durable workload", st.LastSeq)
	if w.sse == nil {
		return
	}
	w.sse.stop()
	lag := newSeries(len(w.sse.samples))
	i := 0
	for _, win := range wins {
		for ; i < len(w.sse.samples) && w.sse.samples[i].at.Before(win.end); i++ {
			if !w.sse.samples[i].at.Before(win.start) {
				lag.add(w.sse.samples[i].lag)
			}
		}
		lag.endWindow()
	}
	r.put("event_lag_p50_ms", "ms", lag.pct(0.50, 1e6, speeds))
	r.put("event_lag_p99_ms", "ms", lag.pct(0.99, 1e6, speeds))
	if w.sse.frames > 0 {
		r.extra["restapi.sse_frame_bytes"] = float64(w.sse.bytes) / float64(w.sse.frames)
	}
	r.check("sse_stream", w.sse.err == nil, "%v", w.sse.err)
	r.check("sse_contiguous", w.sse.gaps == 0 && w.sse.resyncs == 0 && len(lag.ns) > 0,
		"%d frames in the windows, %d sequence gaps, %d resync frames", len(lag.ns), w.sse.gaps, w.sse.resyncs)
}

func (w *pollInst) close() error {
	if w.sse != nil {
		w.sse.stop()
	}
	return w.httpInst.close()
}

// ---------------------------------------------------------------------------
// epoch_1k.

// epochCheckAt is the epoch after which the run's violation and
// reconfiguration counts are compared with a replica built from the same
// seed: the determinism contract says they are identical.
const epochCheckAt = 16

type epochInst struct {
	s      *sut
	rc     runConfig
	ser    map[string]*series
	done   int
	epoch  time.Duration
	atMark core.GainReport
}

// newEpochSUT builds the simulated system with its standing population: one
// third each constant, diurnal and bursty demand, drawn from the system's
// own seeded generator.
func newEpochSUT(rc runConfig, tr *tracer) (*sut, error) {
	cfg, tbCfg := epochSizing(rc.epochPop)
	s, err := buildSUT(sutSpec{cfg: cfg, tbCfg: tbCfg, seed: rc.seed, sim: true, tr: tr})
	if err != nil {
		return nil, err
	}
	rng := s.sim.Rand()
	for i := 0; i < rc.epochPop; i++ {
		var d traffic.Demand
		switch i % 3 {
		case 0:
			d = traffic.NewConstant(1, 0.15, rng)
		case 1:
			d = traffic.NewDiurnal(1, 0.6, 14, 0.1, rng)
		default:
			d = traffic.NewBursty(0.5, 1.8, 0.05, 0.3, 0.1, rng)
		}
		sl, err := s.orch.Submit(slice.Request{
			Tenant: fmt.Sprintf("epoch-%d", i),
			SLA:    slice.SLA{ThroughputMbps: 2, MaxLatencyMs: 50, Duration: 100000 * time.Hour, PriceEUR: 10, PenaltyEUR: 1},
		}, d)
		if err != nil {
			return nil, err
		}
		if sl.State() == slice.StateRejected {
			return nil, fmt.Errorf("standing slice %d rejected: %s", i, sl.Reason())
		}
	}
	if err := s.sim.RunFor(15 * time.Second); err != nil { // install stages + vEPC boot
		return nil, err
	}
	if got := s.orch.ActiveCount(); got != rc.epochPop {
		return nil, fmt.Errorf("%d of %d standing slices active", got, rc.epochPop)
	}
	return s, nil
}

func setupEpoch(rc runConfig, tr *tracer, _ bool) (instance, time.Duration, error) {
	s, err := newEpochSUT(rc, tr)
	if err != nil {
		return nil, 0, err
	}
	return &epochInst{s: s, rc: rc, epoch: s.orch.Config().Epoch,
		ser: map[string]*series{"epoch": newSeries(1 << 16)}}, 0, nil
}

func (w *epochInst) series() map[string]*series { return w.ser }
func (w *epochInst) orch() *core.Orchestrator   { return w.s.orch }

// op advances the simulated clock by one epoch and times the control pass.
// The loop is not Started: the benchmark calls RunEpoch itself.
func (w *epochInst) op() (time.Duration, error) {
	if err := w.s.sim.RunFor(w.epoch); err != nil {
		return 0, err
	}
	start := time.Now()
	w.s.orch.RunEpoch()
	d := time.Since(start)
	w.ser["epoch"].add(d)
	if w.done++; w.done == epochCheckAt {
		w.atMark = w.s.orch.Gain()
	}
	return d, nil
}

func (w *epochInst) finish(r *result, wins []winSpan) {
	speeds := speedsOf(wins)
	r.put("epoch_p50_ms", "ms", w.ser["epoch"].pct(0.50, 1e6, speeds))
	r.put("epoch_p95_ms", "ms", w.ser["epoch"].pct(0.95, 1e6, speeds))
	g := w.s.orch.Gain()
	r.extra["epochs"] = float64(g.Epochs)
	r.extra["violation_epochs"] = float64(g.ViolationEpochs)
	r.extra["reconfigurations"] = float64(g.Reconfigurations)
	r.check("population_active", g.Active == w.rc.epochPop && g.Epochs == w.done, "%d active after %d epochs, want %d after %d", g.Active, g.Epochs, w.rc.epochPop, w.done)
	r.check("no_wal_records", w.s.orch.PersistStatus().LastSeq == 0, "WAL records on a non-durable workload")
	if w.done < epochCheckAt {
		r.check("epoch_determinism", false, "only %d epochs ran, need %d", w.done, epochCheckAt)
		return
	}
	replica, err := newEpochSUT(w.rc, nil)
	if err != nil {
		r.check("epoch_determinism", false, "replica: %v", err)
		return
	}
	for i := 0; i < epochCheckAt; i++ {
		if err := replica.sim.RunFor(w.epoch); err != nil {
			r.check("epoch_determinism", false, "replica: %v", err)
			return
		}
		replica.orch.RunEpoch()
	}
	rg := replica.orch.Gain()
	r.check("epoch_determinism", rg.ViolationEpochs == w.atMark.ViolationEpochs && rg.Reconfigurations == w.atMark.Reconfigurations,
		"after %d epochs of seed %d: %d violations / %d reconfigurations, replica %d / %d",
		epochCheckAt, w.rc.seed, w.atMark.ViolationEpochs, w.atMark.Reconfigurations, rg.ViolationEpochs, rg.Reconfigurations)
}

func (w *epochInst) close() error { return w.s.close() }

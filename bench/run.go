package main

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	stat
	unit string
}

// check is one output check; a failed check fails the run.
type check struct {
	name   string
	ok     bool
	detail string
}

// result is everything one run of one workload reports.
type result struct {
	workload  string
	metrics   map[string]metric
	extra     map[string]float64 // counts and per-layer values gathered on the way
	checks    []check
	attempted int
	failed    int
	firstErr  error // first failed operation, for the report
}

func newResult(workload string) *result {
	return &result{workload: workload, metrics: map[string]metric{}, extra: map[string]float64{}}
}

func (r *result) put(name, unit string, s stat) { r.metrics[name] = metric{stat: s, unit: unit} }

func (r *result) putValue(name, unit string, v float64) {
	r.put(name, unit, stat{v: v, min: v, max: v, n: 1})
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	c := check{name: name, ok: ok}
	if !ok {
		c.detail = fmt.Sprintf(format, args...)
	}
	r.checks = append(r.checks, c)
}

// failedChecks counts the output checks that did not hold.
func (r *result) failedChecks() int {
	n := 0
	for _, c := range r.checks {
		if !c.ok {
			n++
		}
	}
	return n
}

// correct reports whether every operation and every output check passed.
func (r *result) correct() bool { return r.failed == 0 && r.failedChecks() == 0 }

// setUp performs the workload's set-up setupReps times and keeps the last
// instance. Set-up time is building the SUT, admitting the standing
// population and the fixed-count warm-up; waiting on model timers is not
// counted. Each repetition is scaled by the host speed sampled during it.
func setUp(w workload, rc runConfig, tr *tracer) (instance, stat, error) {
	var inst instance
	var took []float64
	for rep := 0; rep < rc.setupReps; rep++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, stat{}, fmt.Errorf("closing discarded set-up: %w", err)
			}
		}
		pace := pacer{ref: rc.ref}
		start := time.Now()
		var idle time.Duration
		var err error
		inst, idle, err = w.setup(rc, tr, rep == rc.setupReps-1)
		if err != nil {
			return nil, stat{}, fmt.Errorf("set-up: %w", err)
		}
		for i, n := 0, rc.ops(w.warmOps); i < n && err == nil; i++ {
			if err = pace.tick(time.Now()); err == nil {
				_, err = inst.op()
			}
		}
		if err != nil {
			inst.close()
			return nil, stat{}, fmt.Errorf("warm-up: %w", err)
		}
		took = append(took, (time.Since(start)-idle-pace.wall).Seconds()*pace.speed())
	}
	for _, s := range inst.series() {
		s.reset()
	}
	return inst, statOf(took, len(took)), nil
}

// runWorkload is the timed, untraced run: set-up, then rc.windows measured
// windows of closed-loop operations. Every metric is computed per window,
// scaled by the host speed the reference requests measured inside that
// window, and reported as the median of the windows.
func runWorkload(w workload, rc runConfig) (*result, error) {
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	defer ref.close()
	rc.ref = ref
	inst, setup, err := setUp(w, rc, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	defer inst.close()

	r := newResult(w.name)
	r.put("setup_s", "s", setup)
	op := newSeries(seriesCap)
	var wins []winSpan
	var rate, cpu, rawRate, speeds []float64
	for i := 0; i < rc.windows; i++ {
		pace := pacer{ref: ref}
		start, cpu0 := time.Now(), cpuTime()
		end := start.Add(rc.window)
		ops := 0
		for now := start; now.Before(end); now = time.Now() {
			if err := pace.tick(now); err != nil {
				return nil, err
			}
			d, err := inst.op()
			r.attempted++
			if err != nil {
				r.failed++
				if r.firstErr == nil {
					r.firstErr = err
				}
				continue
			}
			op.add(d)
			ops++
		}
		stop := time.Now()
		speed := pace.speed()
		perSec := float64(ops) / (stop.Sub(start) - pace.wall).Seconds()
		busy := cpuTime() - cpu0 - pace.cpu
		rawRate = append(rawRate, perSec)
		rate = append(rate, perSec/speed)
		cpu = append(cpu, us(busy)/float64(max(ops, 1))*speed)
		speeds = append(speeds, speed)
		wins = append(wins, winSpan{start: start, end: stop, speed: speed})
		op.endWindow()
		for _, s := range inst.series() {
			s.endWindow()
		}
	}

	r.put("ops_per_s", "1/s", statOf(rate, len(op.ns)))
	r.put("op_p50_ms", "ms", op.pct(0.50, 1e6, speeds))
	r.put("op_p95_ms", "ms", op.pct(0.95, 1e6, speeds))
	r.put("cpu_us_per_op", "us", statOf(cpu, len(op.ns)))
	r.put("host_speed", "ratio", statOf(speeds, len(speeds)))
	r.put("raw_ops_per_s", "1/s", statOf(rawRate, len(op.ns)))
	r.put("raw_op_p50_ms", "ms", op.pct(0.50, 1e6, nil))
	inst.finish(r, wins)
	r.putValue("fail_ratio", "ratio", float64(r.failed+r.failedChecks())/float64(max(r.attempted, 1)))
	return r, nil
}

// fixedPass runs n operations back to back and returns their rate, scaled
// by the host speed sampled beside them, and their extent.
func fixedPass(inst instance, n int, r *result, ref *reference) (float64, []winSpan, error) {
	pace := pacer{ref: ref}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := pace.tick(time.Now()); err != nil {
			return 0, nil, err
		}
		r.attempted++
		if _, err := inst.op(); err != nil {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = err
			}
		}
	}
	end := time.Now()
	rate := float64(n) / (end.Sub(start) - pace.wall).Seconds() / pace.speed()
	return rate, []winSpan{{start: start, end: end, speed: 1}}, nil
}

// traceWorkload is the traced run, kept apart from the timed one: a fixed
// number of operations so counts repeat exactly, first against the plain SUT
// (the rate tracing is compared with), then against the SUT with a span
// recorder at every public seam, then the direct pass with no HTTP at all.
// Its numbers are as measured; only the ratio of the two rates is scaled by
// host speed, the passes being seconds apart.
func traceWorkload(w workload, rc runConfig, tracePath string) (*result, error) {
	rc.setupReps = 1
	n := rc.ops(w.traceOps)
	r := newResult(w.name)
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	defer ref.close()

	plain, _, err := setUp(w, rc, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: plain pass: %w", w.name, err)
	}
	plainRate, _, err := fixedPass(plain, n, r, ref)
	if cerr := plain.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	tr := newTracer(n*w.spansPerOp(rc) + 4096)
	inst, _, err := setUp(w, rc, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: traced pass: %w", w.name, err)
	}
	defer inst.close()
	tr.reset()
	before := inst.orch().PersistStatus()
	tracedRate, extent, err := fixedPass(inst, n, r, ref)
	if err != nil {
		return nil, err
	}
	for _, s := range inst.series() {
		s.endWindow()
	}
	// Everything the fixed pass produced is read before finish, whose
	// checks send requests of their own.
	tr.quiesce()
	sp, dropped := tr.spans()
	r.check("trace_complete", dropped == 0, "%d spans did not fit the trace buffer", dropped)
	out := r.extra
	out["trace.overhead_ratio"] = tracedRate / plainRate
	after := inst.orch().PersistStatus()
	out["wal.fsyncs"] = float64(after.Fsyncs - before.Fsyncs)
	out["wal.commit_ops"] = float64(after.CommitOps - before.CommitOps)
	out["core.max_group"] = float64(after.MaxGroup)
	layerMetrics(inst, tr, sp, n, out)
	inst.finish(r, extent)
	out["sse.lag_us"] = r.metrics["event_lag_p50_ms"].v * 1e3
	if err := w.direct(rc, out); err != nil {
		return nil, fmt.Errorf("%s: direct pass: %w", w.name, err)
	}
	derivedMetrics(w.popSuffix, out)
	for _, d := range perLayer {
		v := out[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.check("finite_"+d.name, false, "%s is %v", d.name, v)
			v = 0
		}
		r.putValue(d.name, d.unit, v)
	}
	if tracePath != "" {
		if err := tr.writeJSONL(tracePath); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// layerMetrics turns the traced pass's spans and counters into the
// per-layer values that come from the wire.
func layerMetrics(inst instance, tr *tracer, sp []span, ops int, out map[string]float64) {
	by := spanStats(sp)
	fops := float64(ops)

	// restapi: the handler spans, by route.
	for _, route := range []string{"submit", "delete", "list", "get", "gain"} {
		out["restapi."+route+"_serve_us"] = medianUs(by["restapi."+route])
	}

	// net/http: client latency minus the handler span of the same request.
	// One closed-loop client, so the i-th client sample of a route is the
	// i-th handler span of that route (epoch_1k has neither).
	var over []int64
	for name, s := range inst.series() {
		var handler []span
		for _, x := range sp {
			if x.name == "restapi."+name {
				handler = append(handler, x)
			}
		}
		slices.SortFunc(handler, func(a, b span) int { return int(a.id) - int(b.id) })
		if len(handler) != len(s.ns) {
			continue
		}
		for i, lat := range s.ns {
			over = append(over, lat-handler[i].dur())
		}
	}
	slices.Sort(over)
	out["nethttp.overhead_us"] = medianUs(over)

	// ctrl: every verb of every domain.
	var calls [3]float64
	for name, d := range by {
		for dom, i := range domainIndex {
			if verb, ok := strings.CutPrefix(name, "ctrl."+dom+"."); ok {
				calls[i] += float64(len(d))
				if verb != "abort" {
					out[name+"_us"] = medianUs(d)
				}
				if verb == "reserve" {
					out[name+"_calls"] = float64(len(d))
				}
			}
		}
	}
	for dom, i := range domainIndex {
		out["ctrl."+dom+".calls_per_op"] = calls[i] / fops
		out["ctrl."+dom+".rejects"] = float64(tr.rejects[i].Load())
	}

	// wal: the sink spans; "op" for this layer is one durability boundary
	// (one submit or one delete), as PersistStatus counts them.
	if a := by["wal.append"]; len(a) > 0 {
		out["wal.append_us"] = medianUs(a)
		out["wal.records"] = float64(len(a))
	}
	if s := by["wal.sync"]; len(s) > 0 {
		out["wal.sync_us"] = medianUs(s)
		p99, _ := percentile(s, 0.99)
		out["wal.sync_p99_us"] = float64(p99) / 1e3
	}
	var resize int64
	for _, x := range sp {
		if strings.HasSuffix(x.name, ".resize") {
			resize += x.dur()
		}
	}
	out["ctrl.resize_us_per_epoch"] = float64(resize) / 1e3 / fops
	out["wal.bytes"] = float64(tr.walSize.Load())
	out["wal.staged_syncs"] = float64(tr.staged.Load())
	out["wal.direct_syncs"] = float64(tr.direct.Load())

	// A handler span minus what its ctrl and wal children cover is restapi's
	// and core's own time together; the direct pass tells them apart.
	for _, route := range []string{"submit", "delete"} {
		covered, self := coverage(sp, "restapi."+route)
		out["core."+route+"_children_us"] = medianUs(covered)
		out["wire."+route+"_self_us"] = medianUs(self)
	}
}

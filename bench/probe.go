package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/slice"
	"repro/internal/testbed"
	"repro/internal/transport"
)

// The direct pass: the calls behind the HTTP routes made single-goroutine
// on an undecorated SUT, with no socket, no JSON and no span recorder, so
// each number is the layer's own cost and MemStats deltas are exact.

// timeEach calls f n times and returns the ascending per-call durations.
func timeEach(n int, f func(i int) error) ([]int64, error) {
	d := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := f(i); err != nil {
			return nil, err
		}
		d = append(d, int64(time.Since(start)))
	}
	slices.Sort(d)
	return d, nil
}

// timeLoop calls f n times under one timer and returns ns per call, for
// calls too short to time one by one.
func timeLoop(n int, f func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// mallocs returns the process's cumulative allocation count and bytes.
func mallocs() (uint64, uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// liveProbeSUT builds the live SUT of a direct pass and admits its standing
// population; the returned function closes it and removes its data. The last
// standing slice is returned for Get.
func liveProbeSUT(rc runConfig, pop int, durable bool, tr *tracer) (*sut, *slice.Slice, func(), error) {
	cfg, tbCfg := liveSizing()
	spec := sutSpec{cfg: cfg, tbCfg: tbCfg, seed: rc.seed, tr: tr}
	if durable {
		dir, err := newDataDir(rc, "probe")
		if err != nil {
			return nil, nil, nil, err
		}
		spec.dataDir = dir
	}
	s, err := buildSUT(spec)
	if err != nil {
		return nil, nil, nil, err
	}
	done := func() {
		s.close()
		if durable {
			os.RemoveAll(spec.dataDir)
		}
	}
	stand := fixedPool("standing", 2).reqs[0]
	var last *slice.Slice
	for i := 0; i < max(pop, 1); i++ { // at least one, for Get
		if last, err = admitDirect(s.orch, stand); err != nil {
			done()
			return nil, nil, nil, err
		}
	}
	return s, last, done, nil
}

// admitDirect submits straight into core and requires admission.
func admitDirect(o *core.Orchestrator, req slice.Request) (*slice.Slice, error) {
	sl, err := o.SubmitCtx(context.Background(), req, nil)
	if err != nil {
		return nil, err
	}
	if sl.State() == slice.StateRejected {
		return nil, fmt.Errorf("direct submit rejected: %s", sl.Reason())
	}
	return sl, nil
}

// probeOps is how many cycles a direct pass times.
func probeOps(rc runConfig, durable bool) int {
	if durable {
		return rc.ops(300) // every cycle is two fsyncs
	}
	return rc.ops(2000)
}

// coreSelf replays the workload's core calls on a decorated SUT and records
// each call as a span of its own, so that core's own time is the call minus
// what its ctrl and wal children cover — call by call, inside one pass (an
// fsync differs too much between passes to subtract medians across them).
func coreSelf(rc runConfig, pop int, durable, rejecting bool, out map[string]float64) error {
	n := probeOps(rc, durable)
	tr := newTracer(n*cycleSpans(rc) + 1024)
	s, _, done, err := liveProbeSUT(rc, pop, durable, tr)
	if err != nil {
		return err
	}
	defer done()
	reqs := newRequestPool(rc.seed).reqs
	if rejecting {
		reqs = fixedPool("storm", 1<<20).reqs
	}
	ctx := context.Background()
	for i := -rc.ops(200); i < n; i++ {
		if i == 0 {
			tr.reset() // the cycles before were warm-up
		}
		start := time.Now()
		sl, err := s.orch.SubmitCtx(ctx, reqs[(i+len(reqs))%len(reqs)], nil)
		tr.rec("core.submit", "restapi", uint64(i), start)
		if err != nil {
			return err
		}
		if rejected := sl.State() == slice.StateRejected; rejected != rejecting {
			return fmt.Errorf("direct submit: rejected=%v, want %v", rejected, rejecting)
		}
		if rejecting {
			continue
		}
		start = time.Now()
		err = s.orch.Delete(sl.ID())
		tr.rec("core.delete", "restapi", uint64(i), start)
		if err != nil {
			return err
		}
	}
	sp, _ := tr.spans()
	_, self := coverage(sp, "core.submit")
	out["core.submit_self_us"] = medianUs(self)
	_, self = coverage(sp, "core.delete")
	out["core.delete_self_us"] = medianUs(self)
	return nil
}

// coreProbe measures the core calls behind the HTTP routes on a live SUT
// carrying pop standing slices, durable or not, rejecting or admitting.
// Timings that depend on the registry size are stored under name+suffix
// (".p0", ".p512").
func coreProbe(rc runConfig, pop int, durable, rejecting bool, suffix string, out map[string]float64) error {
	if err := coreSelf(rc, pop, durable, rejecting, out); err != nil {
		return err
	}
	s, standing, done, err := liveProbeSUT(rc, pop, durable, nil)
	if err != nil {
		return err
	}
	defer done()
	o := s.orch
	pool := newRequestPool(rc.seed)
	ctx := context.Background()
	req := func(i int) slice.Request { return pool.reqs[i%len(pool.reqs)] }
	n := probeOps(rc, durable)

	// Submit+delete cycles, each call timed; allocations over the batch.
	cycle := func(i int) error {
		sl, err := admitDirect(o, req(i))
		if err != nil {
			return err
		}
		return o.Delete(sl.ID())
	}
	for i := 0; i < rc.ops(200); i++ {
		if err := cycle(i); err != nil {
			return err
		}
	}
	submit, del := make([]int64, 0, n), make([]int64, 0, n)
	seq0 := o.Events().LastSeq()
	m0, b0 := mallocs()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		sl, err := admitDirect(o, req(i))
		t1 := time.Now()
		if err != nil {
			return err
		}
		if err := o.Delete(sl.ID()); err != nil {
			return err
		}
		submit, del = append(submit, int64(t1.Sub(t0))), append(del, int64(time.Since(t1)))
	}
	m1, b1 := mallocs()
	slices.Sort(submit)
	slices.Sort(del)
	out["core.submit_us"+suffix] = medianUs(submit)
	out["core.delete_us"+suffix] = medianUs(del)
	out["core.allocs_per_cycle"] = float64(m1-m0) / float64(n)
	out["core.bytes_per_cycle"] = float64(b1-b0) / float64(n)
	out["core.events_per_cycle"] = float64(o.Events().LastSeq()-seq0) / float64(n)
	if durable {
		return nil // the read plane and the reject path never reach the WAL
	}

	// The read plane.
	d, err := timeEach(min(n, 500), func(int) error {
		_, err := o.ListFiltered(core.ListOptions{Limit: 50})
		return err
	})
	if err != nil {
		return err
	}
	out["core.list_page_us"+suffix] = medianUs(d)
	d, _ = timeEach(n, func(int) error { o.Gain(); return nil })
	out["core.gain_us"+suffix] = medianUs(d)
	d, err = timeEach(n, func(i int) error { _, err := o.DryRun(req(i)); return err })
	if err != nil {
		return err
	}
	out["core.dryrun_us"+suffix] = medianUs(d)
	id := standing.ID()
	out["core.get_ns"] = timeLoop(50*n, func(int) { o.Get(id) })

	// The event bus, in process: delivery lag of Watch beside churn.
	wctx, cancel := context.WithCancel(ctx)
	var lags []int64
	resyncs := 0
	watched := make(chan struct{})
	events := o.Watch(wctx, core.WatchOptions{Buffer: 256})
	go func() {
		defer close(watched)
		for ev := range events {
			lags = append(lags, int64(time.Since(ev.Time)))
			if ev.Type == core.EventResync {
				resyncs++
			}
		}
	}()
	for i := 0; i < n; i++ {
		if err := cycle(i); err != nil {
			cancel()
			<-watched
			return err
		}
	}
	// Let the subscriber drain what is published before ending the stream.
	for deadline := time.Now().Add(time.Second); len(events) > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-watched
	slices.Sort(lags)
	out["core.watch_lag_us"] = medianUs(lags)
	out["core.watch_resyncs"] = float64(resyncs)

	// restapi on a recorder: allocations of one submit through the handler
	// (decode, core, encode), without the socket.
	k := min(n, 128)
	recs := make([]*httptest.ResponseRecorder, 0, k)
	m0, _ = mallocs()
	for i := 0; i < k; i++ {
		rec := httptest.NewRecorder()
		s.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v2/slices", bytes.NewReader(pool.bodies[i%len(pool.bodies)])))
		if rec.Code != http.StatusAccepted {
			return fmt.Errorf("recorder submit: status %d", rec.Code)
		}
		recs = append(recs, rec)
	}
	m1, _ = mallocs()
	out["restapi.allocs_per_submit"] = float64(m1-m0) / float64(k)
	for _, rec := range recs {
		var rep submitReply
		if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
			return err
		}
		if err := o.Delete(slice.ID(rep.ID)); err != nil {
			return err
		}
	}

	// The reject path, last: it fills the finished-slice history.
	huge := fixedPool("storm", 1<<20).reqs[0]
	d, err = timeEach(n, func(int) error {
		sl, err := o.SubmitCtx(ctx, huge, nil)
		if err == nil && sl.State() != slice.StateRejected {
			err = fmt.Errorf("direct reject admitted")
		}
		return err
	})
	if err != nil {
		return err
	}
	out["core.reject_us"+suffix] = medianUs(d)
	out["core.submit_fast_ns"] = timeLoop(50*n, func(int) {
		slice.RecycleRejection(o.SubmitFast(huge))
	})
	return nil
}

// epochProbe measures the control epoch on the simulated SUT without
// decorators, and the standalone calls it is made of on the loaded system.
func epochProbe(rc runConfig, out map[string]float64) error {
	s, err := newEpochSUT(rc, nil)
	if err != nil {
		return err
	}
	defer s.close()
	epoch := s.orch.Config().Epoch
	n := rc.ops(288)
	g0 := s.orch.Gain()
	var runs []int64
	var allocs uint64
	for i := 0; i < n; i++ {
		if err := s.sim.RunFor(epoch); err != nil {
			return err
		}
		m0, _ := mallocs()
		start := time.Now()
		s.orch.RunEpoch()
		runs = append(runs, int64(time.Since(start)))
		m1, _ := mallocs()
		allocs += m1 - m0
	}
	slices.Sort(runs)
	g1 := s.orch.Gain()
	out["core.epoch_us"] = medianUs(runs)
	out["core.epoch_allocs"] = float64(allocs) / float64(n)
	out["core.reconfigs_per_epoch"] = float64(g1.Reconfigurations-g0.Reconfigurations) / float64(n)
	out["core.violations_per_epoch"] = float64(g1.ViolationEpochs-g0.ViolationEpochs) / float64(n)

	// The serial pieces of an epoch, standalone on the loaded system.
	demand := make(map[slice.PLMN]float64)
	for _, snap := range s.orch.List() {
		if snap.State == "active" {
			demand[snap.Allocation.PLMN] = 1
		}
	}
	k := rc.ops(50)
	d, _ := timeEach(k, func(int) error { s.tb.Ctrl.RAN.ScheduleEpoch(demand, false); return nil })
	out["ran.schedule_epoch_us"] = medianUs(d)
	store, now := s.orch.Store(), s.sim.Now()
	d, _ = timeEach(k, func(int) error { s.tb.Ctrl.PushTelemetry(store, now); return nil })
	out["ctrl.push_telemetry_us"] = medianUs(d)
	d, err = timeEach(20*k, func(int) error {
		_, err := s.tb.Transport.ShortestPath(transport.PathRequest{From: testbed.ENBName(0), To: testbed.CoreDC, MinMbps: 1, MaxDelayMs: 50})
		return err
	})
	if err != nil {
		return err
	}
	out["transport.shortest_path_us"] = medianUs(d)

	// One forecaster step: observe a sample, compute the provisioning target.
	prov := forecast.NewProvisioner(forecast.NewEWMA(0.3), 0.9, 1)
	sink := 0.0
	out["forecast.step_ns"] = timeLoop(20000*k, func(i int) {
		prov.Observe(1 + float64(i%7)*0.1)
		sink += prov.Provision(2)
	})
	if sink < 0 {
		return fmt.Errorf("provisioner returned a negative target")
	}
	return nil
}

// derivedMetrics computes the values that combine the wire pass with the
// direct pass. Self time is a span minus what its children cover: a handler
// span minus its ctrl and wal children is restapi's and core's own time
// together, and the direct pass's core self time splits the two.
func derivedMetrics(suffix string, out map[string]float64) {
	for _, route := range []string{"submit", "delete"} {
		if out["restapi."+route+"_serve_us"] > 0 {
			out["restapi."+route+"_self_us"] = out["wire."+route+"_self_us"] - out["core."+route+"_self_us"]
		}
	}
	if serve := out["restapi.list_serve_us"]; serve > 0 {
		out["restapi.list_self_us"] = serve - out["core.list_page_us"+suffix]
	}
	if lag := out["sse.lag_us"]; lag > 0 {
		out["restapi.sse_self_us"] = lag - out["core.watch_lag_us"]
	}
	if ops := out["wal.commit_ops"]; ops > 0 {
		out["wal.records_per_op"] = out["wal.records"] / ops
		out["wal.bytes_per_op"] = out["wal.bytes"] / ops
		out["wal.fsyncs_per_op"] = out["wal.fsyncs"] / ops
	}
	if f := out["wal.fsyncs"]; f > 0 {
		out["wal.group_size_mean"] = out["wal.commit_ops"] / f
	}
	if epoch := out["core.epoch_us"]; epoch > 0 {
		// Resize spans come from the traced pass: per epoch, what the three
		// domains' Resize calls took together.
		out["core.epoch_self_us"] = epoch - out["ctrl.resize_us_per_epoch"] -
			out["ran.schedule_epoch_us"] - out["ctrl.push_telemetry_us"]
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/testbed"
	"repro/internal/wal"
)

// The decorators must keep the optional capabilities of what they wrap:
// core discovers all three by type assertion.
var (
	_ core.StagedSink         = tracedStagedSink{}
	_ core.Sink               = tracedSink{}
	_ ctrl.Domain             = (*tracedDomain)(nil)
	_ ctrl.FeasVersioner      = domainFV{}
	_ ctrl.LatencyContributor = domainLC{}
	_ ctrl.FeasVersioner      = domainFVLC{}
	_ ctrl.LatencyContributor = domainFVLC{}
)

// testConfig shrinks the declared benchmark to a fraction of a second per
// workload: 150 ms windows, tiny populations, no wait for vEPC boot timers.
func testConfig(t *testing.T) runConfig {
	t.Helper()
	rc := defaultConfig()
	rc.window, rc.windows, rc.setupReps = 150*time.Millisecond, 3, 2
	rc.scale, rc.standing, rc.epochPop, rc.await = 0.05, 16, 48, false
	rc.dataRoot = t.TempDir()
	if fs, volatile, err := fsType(rc.dataRoot); err != nil || volatile {
		t.Skipf("temporary directory is on %s (%v): durable workloads refuse it", fs, err)
	}
	return rc
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, tc := range []struct {
		p    float64
		want int64
		ok   bool
	}{
		{0.50, 50, true},   // 50 beyond
		{0.90, 90, true},   // exactly 10 beyond
		{0.91, 91, false},  // 9 beyond
		{0.99, 99, false},  // 1 beyond
		{1.00, 100, false}, // none beyond
	} {
		got, ok := percentile(s, tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..100, %v) = %d, %v; want %d, %v", tc.p, got, ok, tc.want, tc.ok)
		}
	}
	if v, ok := percentile([]int64{7}, 0.5); v != 7 || ok {
		t.Errorf("percentile of one sample = %d, %v; want 7, false", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported as supported")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v, want 0", got)
	}
}

func TestSeriesMedianOfWindows(t *testing.T) {
	// Three windows of 40 samples whose medians are 1, 100 and 3 ms: the
	// reported p50 is the median of the windows, not of the pooled samples.
	s := newSeries(0)
	for _, ms := range []int{1, 100, 3} {
		for i := 0; i < 40; i++ {
			s.add(time.Duration(ms) * time.Millisecond)
		}
		s.endWindow()
	}
	st := s.pct(0.50, 1e6, nil)
	if st.v != 3 || st.min != 1 || st.max != 100 || st.n != 120 || st.thin {
		t.Errorf("p50 over windows = %+v; want median 3, min 1, max 100, n 120", st)
	}
	// A p99 needs 1000 samples per window; with 40 it falls back to the
	// pooled samples, and 120 samples leave only one beyond the p99.
	st = s.pct(0.99, 1e6, nil)
	if st.v != 100 || !st.thin {
		t.Errorf("pooled p99 = %+v; want 100 and thin", st)
	}
	// Host speed scales each window by its own factor before the median.
	st = s.pct(0.50, 1e6, []float64{1, 0.5, 2})
	if st.v != 6 || st.min != 1 || st.max != 50 {
		t.Errorf("scaled p50 = %+v; want windows 1, 50, 6", st)
	}
	s.reset()
	if st := s.pct(0.5, 1, nil); st.n != 0 || st.v != 0 {
		t.Errorf("reset series reports %+v", st)
	}
}

// wantPerRequest lists the per-request metrics each workload must report.
var wantPerRequest = map[string][]string{
	"churn_mem":     {"submit_p50_ms", "submit_p99_ms", "delete_p50_ms", "delete_p99_ms"},
	"churn_durable": {"submit_p50_ms", "submit_p99_ms", "delete_p50_ms", "delete_p99_ms", "recover_us_per_record"},
	"reject_storm":  {"submit_p50_ms", "submit_p99_ms"},
	"poll_watch":    {"submit_p50_ms", "delete_p50_ms", "read_p50_ms", "event_lag_p50_ms", "event_lag_p99_ms"},
	"epoch_1k":      {"epoch_p50_ms", "epoch_p95_ms"},
}

func requireCorrect(t *testing.T, r *result) {
	t.Helper()
	if r.firstErr != nil {
		t.Errorf("first failed operation: %v", r.firstErr)
	}
	for _, c := range r.checks {
		if !c.ok {
			t.Errorf("check %s failed: %s", c.name, c.detail)
		}
	}
	if !r.correct() || r.attempted == 0 {
		t.Errorf("attempted %d, failed %d, correct %v", r.attempted, r.failed, r.correct())
	}
}

func TestTimedRunReportsEveryMetric(t *testing.T) {
	rc := testConfig(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := runWorkload(w, rc)
			if err != nil {
				t.Fatal(err)
			}
			requireCorrect(t, r)
			var names []string
			for _, d := range endToEnd {
				names = append(names, d.name)
			}
			for _, name := range append(names, wantPerRequest[w.name]...) {
				m, ok := r.metrics[name]
				if !ok {
					t.Errorf("metric %s missing", name)
				} else if math.IsNaN(m.v) || math.IsInf(m.v, 0) || m.v <= 0 {
					t.Errorf("metric %s = %v, want finite and positive", name, m.v)
				}
			}
			if got := r.metrics["fail_ratio"].v; got != 0 {
				t.Errorf("fail_ratio = %v, want 0", got)
			}
			line := r.wire(endToEnd)
			if len(line.Metrics) != len(endToEnd) || !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("result line %+v does not carry exactly the end-to-end metrics", line)
			}
		})
	}
}

// traced runs one workload's traced run and requires every per-layer metric.
func traced(t *testing.T, name string, rc runConfig) *result {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	path := filepath.Join(rc.dataRoot, "trace.jsonl")
	r, err := traceWorkload(w, rc, path)
	if err != nil {
		t.Fatal(err)
	}
	requireCorrect(t, r)
	for _, d := range perLayer {
		m, ok := r.metrics[d.name]
		if !ok {
			t.Errorf("per-layer metric %s missing", d.name)
		} else if m.unit != d.unit {
			t.Errorf("per-layer metric %s in %q, declared %q", d.name, m.unit, d.unit)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var first struct {
		Name  string `json:"name"`
		Start int64  `json:"start_ns"`
		End   int64  `json:"end_ns"`
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	if err := json.Unmarshal(line, &first); err != nil || first.Name == "" || first.End < first.Start {
		t.Errorf("trace file starts with %q (%v)", line, err)
	}
	return r
}

func TestTracedDurableKeepsGroupCommit(t *testing.T) {
	r := traced(t, "churn_durable", testConfig(t))
	v := func(name string) float64 { return r.metrics[name].v }
	if v("core.max_group") < 1 {
		t.Errorf("core.max_group = %v, want >= 1", v("core.max_group"))
	}
	if f := v("wal.fsyncs_per_op"); f <= 0 || f > 1 {
		t.Errorf("wal.fsyncs_per_op = %v, want in (0, 1]", f)
	}
	// StageCommit forwarded: every commit went through the staged path.
	if r.extra["wal.staged_syncs"] == 0 || r.extra["wal.direct_syncs"] != 0 {
		t.Errorf("%v staged syncs, %v under the persistence mutex: the sink decorator lost StagedSink",
			r.extra["wal.staged_syncs"], r.extra["wal.direct_syncs"])
	}
	for _, name := range []string{"wal.records_per_op", "wal.bytes_per_op", "wal.sync_us", "wal.append_us",
		"wal.log_bytes", "wal.load_us_per_record", "core.replay_us_per_record", "core.submit_self_us",
		"nethttp.overhead_us", "restapi.submit_serve_us", "ctrl.transport.reserve_us"} {
		if v(name) <= 0 {
			t.Errorf("%s = %v on the durable workload, want > 0", name, v(name))
		}
	}
}

func TestTracedBypassPredictions(t *testing.T) {
	rc := testConfig(t)
	zero := func(t *testing.T, r *result, prefixes ...string) {
		t.Helper()
		for _, d := range perLayer {
			for _, p := range prefixes {
				if strings.HasPrefix(d.name, p) && r.metrics[d.name].v != 0 {
					t.Errorf("%s = %v on %s, want 0 (the workload bypasses that layer)", d.name, r.metrics[d.name].v, r.workload)
				}
			}
		}
	}
	t.Run("reject_storm", func(t *testing.T) {
		r := traced(t, "reject_storm", rc)
		zero(t, r, "wal.", "ctrl.ran.reserve", "ctrl.transport.reserve", "ctrl.cloud.reserve")
		if r.extra["wal.records"] != 0 {
			t.Errorf("%v WAL records on reject_storm", r.extra["wal.records"])
		}
		if r.metrics["restapi.submit_serve_us"].v <= 0 || r.metrics["core.reject_us.p0"].v <= 0 {
			t.Error("reject_storm reports no restapi or core time")
		}
	})
	t.Run("epoch_1k", func(t *testing.T) {
		r := traced(t, "epoch_1k", rc)
		zero(t, r, "wal.", "restapi.", "nethttp.")
		for _, name := range []string{"core.epoch_us", "core.epoch_allocs", "ran.schedule_epoch_us", "forecast.step_ns", "transport.shortest_path_us"} {
			if r.metrics[name].v <= 0 {
				t.Errorf("%s = %v on epoch_1k, want > 0", name, r.metrics[name].v)
			}
		}
	})
}

func TestDecoratorsForwardCapabilities(t *testing.T) {
	tb, err := testbed.New(testbed.Config{MECHosts: 1}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(16)

	// FeasVersioner: kept where the domain has it, not invented where it
	// has not (the RAN dry run is vacuous and advertises no version).
	fv, ok := tr.wrapDomain(tb.Ctrl.Transport).(ctrl.FeasVersioner)
	if !ok || fv.FeasVersion() != tb.Ctrl.Transport.FeasVersion() {
		t.Error("transport decorator lost FeasVersioner: the feasibility memo would switch off")
	}
	if _, ok := tr.wrapDomain(tb.Ctrl.RAN).(ctrl.FeasVersioner); ok {
		t.Error("RAN decorator invented FeasVersioner")
	}
	if _, ok := tr.wrapDomain(tb.Ctrl.Cloud).(ctrl.LatencyContributor); ok {
		t.Error("cloud decorator invented LatencyContributor")
	}
	mec := tb.Ctrl.Extra[0]
	lc, ok := tr.wrapDomain(mec).(ctrl.LatencyContributor)
	if !ok || lc.ProcessingLatencyMs() != mec.(ctrl.LatencyContributor).ProcessingLatencyMs() {
		t.Error("MEC decorator lost LatencyContributor: latency budgets would grow")
	}
	if _, ok := tr.wrapDomain(mec).(ctrl.FeasVersioner); !ok {
		t.Error("MEC decorator lost FeasVersioner")
	}
	if got := tr.wrapDomain(mec).Domain(); got != mec.Domain() {
		t.Errorf("decorated domain is named %q, want %q", got, mec.Domain())
	}

	// StagedSink: kept for the WAL writer, not invented for a plain sink.
	w, err := wal.Create(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, ok := tr.wrapSink(core.WALSink(w)).(core.StagedSink); !ok {
		t.Error("sink decorator lost StagedSink: group commit would fall back to fsync under the mutex")
	}
	if _, ok := tr.wrapSink(plainSink{}).(core.StagedSink); ok {
		t.Error("sink decorator invented StagedSink")
	}
}

type plainSink struct{}

func (plainSink) Append(wal.Record) error       { return nil }
func (plainSink) Committed() error              { return nil }
func (plainSink) Snapshot(uint64, []byte) error { return nil }

func TestCoverageCountsOverlapOnce(t *testing.T) {
	sp := []span{
		{name: "restapi.submit", parent: "nethttp", start: 100, end: 200},
		{name: "ctrl.ran.reserve", parent: "core", start: 110, end: 130},
		{name: "ctrl.cloud.reserve", parent: "core", start: 120, end: 150}, // overlaps the one above
		{name: "wal.sync", parent: "core", start: 190, end: 260},           // runs past the parent
		{name: "ctrl.ran.release", parent: "core", start: 300, end: 320},   // outside
	}
	covered, self := coverage(sp, "restapi.submit")
	if len(covered) != 1 || covered[0] != 50 || self[0] != 50 {
		t.Errorf("covered %v, self %v; want [50] and [50]", covered, self)
	}
}

func TestCheckResultAgainstDeclaration(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	bound := 0.1
	var bf benchmarkFile
	bf.Workloads = append(bf.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{"w1", "because"})
	bf.EndToEnd = []fileMetric{{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: &bound}}
	decl := write("decl.json", bf)

	good := resultFile{Results: map[string]wireResult{"w1": {Correct: true, Attempted: 3,
		Metrics: map[string]wireMetric{"ops_per_s": {Value: 12.5, Unit: "1/s"}}}}}
	if err := checkResult(decl, write("good.json", good)); err != nil {
		t.Errorf("a complete result was refused: %v", err)
	}
	for name, mutate := range map[string]func(*resultFile){
		"missing metric":   func(rf *resultFile) { delete(rf.Results["w1"].Metrics, "ops_per_s") },
		"wrong unit":       func(rf *resultFile) { rf.Results["w1"].Metrics["ops_per_s"] = wireMetric{12.5, "ms"} },
		"missing workload": func(rf *resultFile) { delete(rf.Results, "w1") },
		"failed run": func(rf *resultFile) {
			r := rf.Results["w1"]
			r.Correct, r.Failed = false, 1
			rf.Results["w1"] = r
		},
	} {
		bad := resultFile{Results: map[string]wireResult{"w1": {Correct: true, Attempted: 3,
			Metrics: map[string]wireMetric{"ops_per_s": {Value: 12.5, Unit: "1/s"}}}}}
		mutate(&bad)
		if err := checkResult(decl, write("bad.json", bad)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCompareSetsHoldsBothDirectionsToTheBound(t *testing.T) {
	set := func(ops, p50 float64) map[string]*result {
		r := newResult("churn_mem")
		r.putValue("ops_per_s", "1/s", ops)
		r.putValue("op_p50_ms", "ms", p50)
		return map[string]*result{"churn_mem": r}
	}
	var out bytes.Buffer
	if bad := compareSets(&out, []map[string]*result{set(1000, 1.0), set(950, 1.05)}); bad != 0 {
		t.Errorf("5%% apart: %d pairings flagged\n%s", bad, out.String())
	}
	// A faster, lower-latency second set is still a disagreement between
	// two sets of the same build.
	if bad := compareSets(&out, []map[string]*result{set(1000, 1.0), set(2000, 0.5)}); bad != 2 {
		t.Errorf("a factor of two apart: %d pairings flagged, want 2", bad)
	}
}

// TestBenchmarkJSONMatchesProgram keeps the declaration at the repository
// root in step with what the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	var bf benchmarkFile
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &bf); err != nil {
		t.Fatal(err)
	}
	var gated []workload
	for _, w := range workloads {
		if w.gated {
			gated = append(gated, w)
		}
	}
	if len(bf.Workloads) != len(gated) {
		t.Fatalf("%d workloads declared, program gates %d", len(bf.Workloads), len(gated))
	}
	for i, w := range gated {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d declared as %q (%q), program has %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
	same := func(kind string, file []fileMetric, prog []decl, bounded bool) {
		if len(file) != len(prog) {
			t.Errorf("%s: %d metrics declared, program has %d", kind, len(file), len(prog))
			return
		}
		for i, d := range prog {
			f := file[i]
			if f.Name != d.name || f.Unit != d.unit || f.Better != d.better {
				t.Errorf("%s[%d]: declared %+v, program has %+v", kind, i, f, d)
			}
			if bounded != (f.Bound != nil) || (bounded && *f.Bound != d.bound) {
				t.Errorf("%s[%d] %s: bound declared %v, program has %v", kind, i, d.name, f.Bound, d.bound)
			}
			if !nameRE.MatchString(d.name) {
				t.Errorf("%s name %q is malformed", kind, d.name)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd, true)
	same("per_layer", bf.PerLayer, perLayer, false)
	if bf.RunSeconds != int(defaultConfig().window.Seconds())*defaultConfig().windows {
		t.Errorf("run_seconds %d, program default %v x %d", bf.RunSeconds, defaultConfig().window, defaultConfig().windows)
	}
}

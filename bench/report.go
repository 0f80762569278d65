package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"slices"
	"strings"
)

// decl declares one metric: its unit, which direction is better, and the
// share of the baseline median by which it may get worse before a change
// counts as a regression (0 for metrics that carry no bound).
type decl struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd are the metrics every workload reports and BENCHMARK.json gates.
var endToEnd = []decl{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
}

// rawEcho are printed beside the gated metrics so that a reader can see
// what the host-speed scaling did; they carry no bound.
var rawEcho = []decl{
	{"host_speed", "ratio", "higher", 0},
	{"raw_ops_per_s", "1/s", "higher", 0},
	{"raw_op_p50_ms", "ms", "lower", 0},
}

// perRequest are the end-to-end metrics of single request types. Each
// exists only on the workloads that send that request, so BENCHMARK.json
// (whose metrics every workload must report) cannot carry them; the full
// report prints them and -repeat holds them to these bounds.
var perRequest = []decl{
	{"submit_p50_ms", "ms", "lower", 0.25},
	{"submit_p99_ms", "ms", "lower", 0.25},
	{"delete_p50_ms", "ms", "lower", 0.25},
	{"delete_p99_ms", "ms", "lower", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"event_lag_p50_ms", "ms", "lower", 0.25},
	{"event_lag_p99_ms", "ms", "lower", 0.25},
	{"epoch_p50_ms", "ms", "lower", 0.25},
	{"epoch_p95_ms", "ms", "lower", 0.25},
	{"recover_us_per_record", "us", "lower", 0.25},
	{"fail_ratio", "ratio", "lower", 0},
}

// perLayer are the metrics of the traced run. A workload that never enters
// a layer reports 0 for it: that is the bypass prediction, checked by name
// in the tests (no WAL records off churn_durable, no ctrl reserve calls on
// reject_storm, no restapi spans on epoch_1k).
var perLayer = buildPerLayer()

func buildPerLayer() []decl {
	var out []decl
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, decl{name: n, unit: unit, better: better})
		}
	}
	add("us", "lower", "nethttp.submit_p50_us", "nethttp.overhead_us")
	for _, route := range []string{"submit", "delete", "list", "get", "gain"} {
		add("us", "lower", "restapi."+route+"_serve_us")
	}
	add("us", "lower", "restapi.submit_self_us", "restapi.delete_self_us", "restapi.list_self_us", "restapi.sse_self_us")
	add("count", "lower", "restapi.allocs_per_submit")
	add("bytes", "lower", "restapi.submit_req_bytes", "restapi.submit_resp_bytes", "restapi.list_resp_bytes", "restapi.sse_frame_bytes")
	for _, call := range []string{"submit", "delete", "reject", "list_page", "gain", "dryrun"} {
		add("us", "lower", "core."+call+"_us.p0", "core."+call+"_us.p512")
	}
	add("ns", "lower", "core.submit_fast_ns", "core.get_ns")
	add("us", "lower", "core.submit_self_us", "core.submit_children_us", "core.watch_lag_us")
	add("count", "lower", "core.allocs_per_cycle", "core.events_per_cycle", "core.watch_resyncs")
	add("bytes", "lower", "core.bytes_per_cycle")
	for _, d := range []string{"ran", "transport", "cloud"} {
		for _, verb := range []string{"feasible", "reserve", "commit", "release", "resize"} {
			add("us", "lower", "ctrl."+d+"."+verb+"_us")
		}
		add("count", "lower", "ctrl."+d+".calls_per_op", "ctrl."+d+".reserve_calls", "ctrl."+d+".rejects")
	}
	add("us", "lower", "ctrl.push_telemetry_us", "ran.schedule_epoch_us", "transport.shortest_path_us")
	add("us", "lower", "wal.append_us", "wal.sync_us", "wal.sync_p99_us")
	add("count", "lower", "wal.records_per_op", "wal.fsyncs_per_op")
	add("bytes", "lower", "wal.bytes_per_op", "wal.log_bytes")
	add("count", "higher", "wal.group_size_mean", "core.max_group")
	add("us", "lower", "wal.load_us_per_record", "core.replay_us_per_record")
	add("us", "lower", "core.epoch_us", "core.epoch_self_us")
	add("count", "lower", "core.epoch_allocs", "core.reconfigs_per_epoch", "core.violations_per_epoch")
	add("ns", "lower", "forecast.step_ns")
	add("ratio", "higher", "trace.overhead_ratio")
	return out
}

// ---------------------------------------------------------------------------
// Run header.

type header struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	DataFS     string `json:"data_fs"`
	Seed       int64  `json:"seed"`
	Commit     string `json:"git_commit"`
	Window     string `json:"window"`
	Windows    int    `json:"windows"`
	Network    string `json:"network"`
}

func newHeader(rc runConfig) header {
	h := header{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPU: "unknown", DataFS: "unknown", Seed: rc.seed, Commit: "unknown",
		Window: rc.window.String(), Windows: rc.windows,
		Network: "host loopback, client and SUT in one process",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if err := os.MkdirAll(rc.dataRoot, 0o755); err == nil {
		if fs, _, err := fsType(rc.dataRoot); err == nil {
			h.DataFS = fs
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

func (h header) print(w io.Writer) {
	fmt.Fprintf(w, "# nproc=%d GOMAXPROCS=%d %s cpu=%q data_fs=%s seed=%d commit=%s\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPU, h.DataFS, h.Seed, h.Commit)
	fmt.Fprintf(w, "# %d windows of %s, one closed-loop client; %s\n", h.Windows, h.Window, h.Network)
}

// ---------------------------------------------------------------------------
// Printing.

// printResult writes every metric of the run by name with its unit, the
// spread over the windows and the sample count, then the output checks.
func printResult(w io.Writer, r *result, decls ...[]decl) {
	fmt.Fprintf(w, "\n== %s ==\n", r.workload)
	fmt.Fprintf(w, "%-30s %-6s %14s %14s %14s %9s\n", "metric", "unit", "median", "min", "max", "samples")
	for _, list := range decls {
		for _, d := range list {
			m, ok := r.metrics[d.name]
			if !ok {
				continue
			}
			note := ""
			if m.thin {
				note = "  (fewer than 10 samples beyond this percentile)"
			}
			fmt.Fprintf(w, "%-30s %-6s %14.4f %14.4f %14.4f %9d%s\n", d.name, m.unit, m.v, m.min, m.max, m.n, note)
		}
	}
	keys := make([]string, 0, len(r.extra))
	for k := range r.extra {
		if _, declared := r.metrics[k]; !declared && !strings.Contains(k, ".") {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%-30s %-6s %14.0f\n", k, "count", r.extra[k])
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", r.attempted, r.failed)
	if r.firstErr != nil {
		fmt.Fprintf(w, "first failure: %v\n", r.firstErr)
	}
	for _, c := range r.checks {
		if c.ok {
			fmt.Fprintf(w, "check %-28s ok\n", c.name)
		} else {
			fmt.Fprintf(w, "check %-28s FAILED: %s\n", c.name, c.detail)
		}
	}
}

// wireMetric is a metric as the result line and the result file carry it.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// wireResult is the one-line JSON result of a run.
type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

func (r *result) wire(list []decl) wireResult {
	out := wireResult{Correct: r.correct(), Attempted: max(r.attempted, 1), Failed: r.failed + r.failedChecks(), Metrics: map[string]wireMetric{}}
	for _, d := range list {
		if m, ok := r.metrics[d.name]; ok {
			out.Metrics[d.name] = wireMetric{Value: m.v, Unit: m.unit}
		}
	}
	return out
}

// resultFile is what a full run writes for -check to read back.
type resultFile struct {
	Header  header                `json:"header"`
	Trace   int                   `json:"trace"`
	Results map[string]wireResult `json:"results"`
}

// ---------------------------------------------------------------------------
// BENCHMARK.json.

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []fileMetric `json:"end_to_end"`
	PerLayer []fileMetric `json:"per_layer"`
}

type fileMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkResult validates an emitted result against the declaration: every
// declared workload × metric present with its unit, finite, well named.
func checkResult(declPath, resultPath string) error {
	var bf benchmarkFile
	if err := readJSON(declPath, &bf); err != nil {
		return err
	}
	var rf resultFile
	if err := readJSON(resultPath, &rf); err != nil {
		return err
	}
	want := bf.EndToEnd
	if rf.Trace == 1 {
		want = bf.PerLayer
	}
	var problems []string
	for _, w := range bf.Workloads {
		res, ok := rf.Results[w.Name]
		if !ok {
			problems = append(problems, fmt.Sprintf("workload %s: no result", w.Name))
			continue
		}
		if !res.Correct || res.Failed != 0 {
			problems = append(problems, fmt.Sprintf("workload %s: correct=%v failed=%d", w.Name, res.Correct, res.Failed))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			switch {
			case !nameRE.MatchString(m.Name):
				problems = append(problems, fmt.Sprintf("metric name %q is malformed", m.Name))
			case !ok:
				problems = append(problems, fmt.Sprintf("%s × %s: missing", w.Name, m.Name))
			case got.Unit != m.Unit:
				problems = append(problems, fmt.Sprintf("%s × %s: unit %q, declared %q", w.Name, m.Name, got.Unit, m.Unit))
			case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
				problems = append(problems, fmt.Sprintf("%s × %s: value %v", w.Name, m.Name, got.Value))
			}
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("%s does not satisfy %s:\n  %s", resultPath, declPath, strings.Join(problems, "\n  "))
	}
	fmt.Printf("%s: %d workloads × %d metrics present, finite and in their declared units\n", resultPath, len(bf.Workloads), len(want))
	return nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// -repeat.

// worse returns by what share of a the value b is worse, given which
// direction is better (negative when b is better).
func worse(d decl, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets prints, per workload × metric, the median of the first half
// of the sets, the median of the second half, their relative difference and
// the bound, and returns how many pairings of gated workloads exceed their
// bound in either direction (the two halves ran the same code, so any
// excess is noise the bound does not cover).
func compareSets(w io.Writer, sets []map[string]*result) int {
	half := (len(sets) + 1) / 2
	bad := 0
	fmt.Fprintf(w, "\n%-14s %-24s %14s %14s %9s %7s\n", "workload", "metric", "median A", "median B", "diff", "bound")
	for _, wl := range workloads {
		for _, d := range slices.Concat(endToEnd, perRequest) {
			var a, b []float64
			for i, set := range sets {
				r, ok := set[wl.name]
				if !ok {
					continue
				}
				m, ok := r.metrics[d.name]
				if !ok {
					continue
				}
				if i < half {
					a = append(a, m.v)
				} else {
					b = append(b, m.v)
				}
			}
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			diff := math.Max(worse(d, ma, mb), worse(d, mb, ma))
			flag := ""
			switch {
			case diff <= d.bound:
			case wl.gated:
				flag = "  EXCEEDS"
				bad++
			default:
				flag = "  exceeds (workload not gated)"
			}
			fmt.Fprintf(w, "%-14s %-24s %14.4f %14.4f %8.1f%% %6.0f%%%s\n", wl.name, d.name, ma, mb, 100*diff, 100*d.bound, flag)
		}
	}
	return bad
}

// Command benchjson turns `go test -bench -benchmem` output into the
// checked-in BENCH_*.json perf-trajectory files: one JSON document with the
// machine header, every benchmark's ns/op, B/op, allocs/op and derived
// ops/sec (admissions per second for the admission benchmarks), plus —
// when -baseline points at a previous BENCH_*.json — that file's numbers
// and the speedup factors against them, so each PR's file records both
// where the hot path is and where it came from.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -label "PR 8" \
//	    -baseline BENCH_7.json -out BENCH_8.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// OpsPerSec is 1e9/ns_per_op — for the admission benchmarks this is
	// admissions per second.
	OpsPerSec float64 `json:"ops_per_sec"`
	// Extra holds custom b.ReportMetric units (events/op, ...).
	Extra map[string]float64 `json:"extra,omitempty"`
	// Baseline echoes the same benchmark from the -baseline file, with
	// speedup = baseline ns/op divided by current ns/op (>1 is faster) and
	// the alloc reduction as a fraction of the baseline (0.75 = 75% fewer).
	Baseline *BaselineDelta `json:"baseline,omitempty"`
}

// BaselineDelta compares a benchmark against the previous trajectory point.
type BaselineDelta struct {
	NsPerOp        float64 `json:"ns_per_op"`
	AllocsPerOp    float64 `json:"allocs_per_op"`
	Speedup        float64 `json:"speedup"`
	AllocReduction float64 `json:"alloc_reduction"`
}

// Report is the whole BENCH_*.json document.
type Report struct {
	Label        string `json:"label,omitempty"`
	Goos         string `json:"goos,omitempty"`
	Goarch       string `json:"goarch,omitempty"`
	Pkg          string `json:"pkg,omitempty"`
	CPU          string `json:"cpu,omitempty"`
	BaselineFrom string `json:"baseline_from,omitempty"`
	// Notes carries human context for this trajectory point: regression
	// verdicts, shared-runner caveats, measurement methodology.
	Notes []string `json:"notes,omitempty"`
	// GateThreshold and Regressions record the CI regression gate: any
	// benchmark whose speedup against the baseline fell below
	// 1-GateThreshold, or whose allocs/op grew by more than GateThreshold,
	// is listed in Regressions (and fails the build).
	GateThreshold float64     `json:"gate_threshold,omitempty"`
	Regressions   []string    `json:"regressions,omitempty"`
	Benchmarks    []Benchmark `json:"benchmarks"`
}

// parseLine parses one benchmark result line; ok is false for headers,
// PASS/FAIL trailers and anything else that is not a result.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix the testing package appends.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters}
	// The rest comes in value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Extra == nil {
				b.Extra = map[string]float64{}
			}
			b.Extra[unit] = v
		}
	}
	if b.NsPerOp > 0 {
		b.OpsPerSec = 1e9 / b.NsPerOp
	}
	return b, true
}

// Parse reads a whole `go test -bench` transcript.
func Parse(r io.Reader) (Report, error) {
	var rep Report
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		default:
			if b, ok := parseLine(line); ok {
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	return rep, sc.Err()
}

// ApplyBaseline fills each benchmark's Baseline from a previous report.
func ApplyBaseline(rep *Report, prev Report, from string) {
	byName := make(map[string]Benchmark, len(prev.Benchmarks))
	for _, b := range prev.Benchmarks {
		byName[b.Name] = b
	}
	rep.BaselineFrom = from
	for i := range rep.Benchmarks {
		cur := &rep.Benchmarks[i]
		base, ok := byName[cur.Name]
		if !ok || base.NsPerOp <= 0 {
			continue
		}
		d := &BaselineDelta{NsPerOp: base.NsPerOp, AllocsPerOp: base.AllocsPerOp}
		if cur.NsPerOp > 0 {
			d.Speedup = base.NsPerOp / cur.NsPerOp
		}
		if base.AllocsPerOp > 0 {
			d.AllocReduction = 1 - cur.AllocsPerOp/base.AllocsPerOp
		}
		cur.Baseline = d
	}
}

// Gate returns the names of benchmarks that regressed against the baseline
// by more than the allowed fraction: speedup fell below 1-threshold, or
// allocs/op grew by more than threshold (allocation counts repeat exactly
// from run to run, so the same fraction that absorbs timing noise is a
// generous allowance for them). Benchmarks without a baseline entry are
// never gated (new benchmarks must not fail the build that introduces
// them).
func Gate(rep Report, threshold float64) []string {
	if threshold <= 0 {
		return nil
	}
	var out []string
	for _, b := range rep.Benchmarks {
		if b.Baseline == nil {
			continue
		}
		slower := b.Baseline.Speedup > 0 && b.Baseline.Speedup < 1-threshold
		if slower || b.Baseline.AllocReduction < -threshold {
			out = append(out, b.Name)
		}
	}
	return out
}

// noteList collects repeated -note flags.
type noteList []string

func (n *noteList) String() string     { return strings.Join(*n, "; ") }
func (n *noteList) Set(v string) error { *n = append(*n, v); return nil }

func main() {
	in := flag.String("in", "-", "bench transcript to read (- for stdin)")
	out := flag.String("out", "-", "JSON file to write (- for stdout)")
	label := flag.String("label", "", "trajectory label recorded in the report (e.g. \"PR 7\")")
	baseline := flag.String("baseline", "", "previous BENCH_*.json to diff against")
	gate := flag.Float64("gate", 0, "fail (exit 2) when any baselined benchmark slows down, or allocates more per op, by more than this fraction (e.g. 0.25); the report is still written first")
	var notes noteList
	flag.Var(&notes, "note", "free-form note recorded in the report (repeatable)")
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	rep, err := Parse(r)
	if err != nil {
		fatal(err)
	}
	rep.Label = *label
	if len(rep.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark results in input"))
	}
	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			fatal(err)
		}
		var prev Report
		if err := json.Unmarshal(raw, &prev); err != nil {
			fatal(fmt.Errorf("parse baseline %s: %w", *baseline, err))
		}
		ApplyBaseline(&rep, prev, *baseline)
	}
	rep.Notes = notes
	rep.GateThreshold = *gate
	rep.Regressions = Gate(rep, *gate)

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
	// Gate AFTER the report is on disk: a failing build must still leave
	// the trajectory point for the regression investigation.
	if len(rep.Regressions) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed more than %.0f%% vs %s:\n",
			len(rep.Regressions), *gate*100, rep.BaselineFrom)
		for _, name := range rep.Regressions {
			fmt.Fprintln(os.Stderr, "  ", name)
		}
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// Command bench is the repository's benchmark: it assembles the handler tree
// of cmd/orchestrator over a live, durable or simulated system, serves it on
// a loopback TCP listener, drives it from one seeded closed-loop client in
// the same process, checks every answer and prints every metric by name.
// See README.md beside this file for the workloads, the metrics and what
// each is predicted to move.
//
// Usage, from the repository root:
//
//	go run ./bench                         all workloads, timed run
//	go run ./bench -traced                 all workloads, traced run (per-layer metrics)
//	go run ./bench -repeat 2               two timed sets, compared against the bounds
//	go run ./bench -check BENCHMARK.json   validate the last result file
//	go run ./bench --workload churn_mem --seed 7 --seconds 20 --trace 0
//
// The last form is the one BENCHMARK.json declares: one workload, and one
// JSON object as the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	rc := defaultConfig()
	var (
		name    = flag.String("workload", "", "run only this workload and end with the one-line JSON result")
		seconds = flag.Int("seconds", int(rc.window.Seconds())*rc.windows, "measured seconds per workload, split into 5 windows")
		trace   = flag.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = timed run (end-to-end metrics)")
		traced  = flag.Bool("traced", false, "same as -trace 1")
		repeat  = flag.Int("repeat", 0, "run this many timed sets of all workloads and compare them against the bounds")
		check   = flag.String("check", "", "validate the result file against this BENCHMARK.json and exit")
		resPath = flag.String("result", filepath.Join(rc.dataRoot, "result.json"), "result file a full run writes and -check reads")
	)
	flag.Int64Var(&rc.seed, "seed", rc.seed, "seed of the generated requests and of the simulated system")
	flag.Parse()
	if *check != "" {
		exit(checkResult(*check, *resPath))
	}
	if *seconds < 1 {
		exit(fmt.Errorf("-seconds %d: need at least 1", *seconds))
	}
	rc.window = time.Duration(*seconds) * time.Second / time.Duration(rc.windows)
	if *traced {
		*trace = 1
	}

	hdr := newHeader(rc)
	hdr.print(os.Stdout)
	switch {
	case *name != "":
		w, ok := workloadByName(*name)
		if !ok {
			exit(fmt.Errorf("unknown workload %q", *name))
		}
		r, list, err := runOne(w, rc, *trace)
		if err != nil {
			exit(err)
		}
		line, err := json.Marshal(r.wire(list))
		if err != nil {
			exit(err)
		}
		fmt.Printf("%s\n", line)
		if !r.correct() {
			os.Exit(1)
		}
	case *repeat > 0:
		var sets []map[string]*result
		ok := true
		for i := 0; i < *repeat; i++ {
			fmt.Printf("\n#### set %d of %d\n", i+1, *repeat)
			set, setOK, err := runAll(rc, 0)
			if err != nil {
				exit(err)
			}
			ok = ok && setOK
			sets = append(sets, set)
		}
		if bad := compareSets(os.Stdout, sets); bad > 0 {
			exit(fmt.Errorf("%d workload × metric pairings differ by more than their bound between sets of the same build", bad))
		}
		if !ok {
			os.Exit(1)
		}
	default:
		set, ok, err := runAll(rc, *trace)
		if err != nil {
			exit(err)
		}
		list := endToEnd
		if *trace == 1 {
			list = perLayer
		}
		rf := resultFile{Header: hdr, Trace: *trace, Results: map[string]wireResult{}}
		for n, r := range set {
			rf.Results[n] = r.wire(list)
		}
		b, err := json.MarshalIndent(rf, "", " ")
		if err == nil {
			err = os.WriteFile(*resPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			exit(err)
		}
		fmt.Printf("\nresult file: %s\n", *resPath)
		if !ok {
			os.Exit(1)
		}
	}
}

// runOne runs one workload, timed or traced, and prints its report. It
// returns the declaration list the run reports against.
func runOne(w workload, rc runConfig, trace int) (*result, []decl, error) {
	if trace == 1 {
		r, err := traceWorkload(w, rc, filepath.Join(rc.dataRoot, "trace.jsonl"))
		if err != nil {
			return nil, nil, err
		}
		printResult(os.Stdout, r, perLayer)
		return r, perLayer, nil
	}
	r, err := runWorkload(w, rc)
	if err != nil {
		return nil, nil, err
	}
	printResult(os.Stdout, r, endToEnd, rawEcho, perRequest)
	return r, endToEnd, nil
}

// runAll runs every workload once and reports whether all were correct.
func runAll(rc runConfig, trace int) (map[string]*result, bool, error) {
	set := map[string]*result{}
	ok := true
	for _, w := range workloads {
		r, _, err := runOne(w, rc, trace)
		if err != nil {
			return nil, false, err
		}
		set[w.name] = r
		ok = ok && r.correct()
	}
	return set, ok, nil
}

func exit(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

package main

import (
	"strings"
	"testing"
)

const transcript = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkInstallTransaction/domains=3         	     300	     11718 ns/op	    5519 B/op	      85 allocs/op
BenchmarkParallelAdmission/shards=16-4        	     300	     14908 ns/op	    6443 B/op	     107 allocs/op
BenchmarkParallelAdmissionReject              	   10000	        68.37 ns/op	       0 B/op	       0 allocs/op
BenchmarkWatchFanout/subs=64                  	     100	     52000 ns/op	        3.01 events/op	   12000 B/op	     210 allocs/op
PASS
ok  	repro	0.031s
`

func TestParse(t *testing.T) {
	rep, err := Parse(strings.NewReader(transcript))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Fatalf("header: %+v", rep)
	}
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[1]
	if b.Name != "BenchmarkParallelAdmission/shards=16" {
		t.Fatalf("GOMAXPROCS suffix not stripped: %q", b.Name)
	}
	if b.NsPerOp != 14908 || b.AllocsPerOp != 107 || b.BytesPerOp != 6443 {
		t.Fatalf("values: %+v", b)
	}
	if got := b.OpsPerSec; got < 67000 || got > 68000 {
		t.Fatalf("ops/sec: %v", got)
	}
	if rep.Benchmarks[2].NsPerOp != 68.37 {
		t.Fatalf("fractional ns/op: %+v", rep.Benchmarks[2])
	}
	if rep.Benchmarks[3].Extra["events/op"] != 3.01 {
		t.Fatalf("extra metric: %+v", rep.Benchmarks[3])
	}
}

func TestApplyBaseline(t *testing.T) {
	rep, err := Parse(strings.NewReader(transcript))
	if err != nil {
		t.Fatal(err)
	}
	prev := Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkParallelAdmission/shards=16", NsPerOp: 88824, AllocsPerOp: 436},
	}}
	ApplyBaseline(&rep, prev, "BENCH_6.json")
	b := rep.Benchmarks[1]
	if b.Baseline == nil {
		t.Fatal("no baseline delta")
	}
	if b.Baseline.Speedup < 5.9 || b.Baseline.Speedup > 6.0 {
		t.Fatalf("speedup: %v", b.Baseline.Speedup)
	}
	if b.Baseline.AllocReduction < 0.75 {
		t.Fatalf("alloc reduction: %v", b.Baseline.AllocReduction)
	}
	if rep.Benchmarks[0].Baseline != nil {
		t.Fatal("unmatched benchmark got a baseline")
	}
}

func TestGate(t *testing.T) {
	rep := Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkFast", Baseline: &BaselineDelta{Speedup: 1.4}},
		{Name: "BenchmarkNoisy", Baseline: &BaselineDelta{Speedup: 0.80}},
		{Name: "BenchmarkRegressed", Baseline: &BaselineDelta{Speedup: 0.70}},
		{Name: "BenchmarkNew"}, // no baseline: must never gate
	}}
	if got := Gate(rep, 0.25); len(got) != 1 || got[0] != "BenchmarkRegressed" {
		t.Fatalf("gate at 25%%: %v", got)
	}
	// A 0.80 speedup is a 20% slowdown: inside a 25% gate, outside a 10% one.
	if got := Gate(rep, 0.10); len(got) != 2 {
		t.Fatalf("gate at 10%%: %v", got)
	}
	if got := Gate(rep, 0); got != nil {
		t.Fatalf("disabled gate flagged %v", got)
	}
	// Allocations gate on growth alone: 30% more allocs/op fails a 25% gate
	// even at an unchanged ns/op, 20% more does not, fewer never does.
	allocs := Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkLeaner", Baseline: &BaselineDelta{Speedup: 1, AllocReduction: 0.9}},
		{Name: "BenchmarkBitMore", Baseline: &BaselineDelta{Speedup: 1, AllocReduction: -0.20}},
		{Name: "BenchmarkBloated", Baseline: &BaselineDelta{Speedup: 1, AllocReduction: -0.30}},
	}}
	if got := Gate(allocs, 0.25); len(got) != 1 || got[0] != "BenchmarkBloated" {
		t.Fatalf("alloc gate at 25%%: %v", got)
	}
}

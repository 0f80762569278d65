package main

import (
	"testing"

	"repro/examples/internal/golden"
)

// TestRun pins what the example prints (testdata/resilience.golden; -update
// rewrites it).
func TestRun(t *testing.T) { golden.Check(t, "resilience", run) }

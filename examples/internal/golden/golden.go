// Package golden pins what an example prints. The walkthroughs run on a
// simulated clock and are deterministic, so each example's test runs it
// into a buffer and compares the bytes with testdata/<name>.golden: any
// changed line is a changed outcome. go test ./examples/<name> -update
// rewrites the golden; explain every line that moves.
package golden

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/<name>.golden from the example's output")

// Check runs the example into a buffer and requires its output to equal
// testdata/<name>.golden, rewriting the golden first under -update.
//
// Kept: the package is the examples' golden harness; each example's
// TestRun calls it.
func Check(t *testing.T, name string, run func(io.Writer) error) {
	t.Helper()
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from %s:\n--- got\n%s--- want\n%s", path, out.Bytes(), want)
	}
}

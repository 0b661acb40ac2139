// Package golden is the test-side half of every recorded-output oracle
// in the tree: one -update flag and one compare-or-rewrite. A test
// renders what the code under test produces and hands it to Check with
// the path of the recorded file; under `go test -update` the file is
// rewritten instead. Regenerate a file only for a deliberate change to
// a cost model, a generator or an output format, never to make a
// failing change pass.
//
// Only tests import this package.
package golden

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the recorded golden files from the code under test (deliberate model or format changes only)")

// Updating reports whether the test binary runs with -update.
func Updating() bool { return *update }

// Check compares got against the file at path and fails the test at
// the first differing line, or rewrites the file under -update.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			w := "<missing>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("%s line %d differs:\n got  %s\n want %s", path, i+1, gl[i], w)
		}
	}
	t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
}

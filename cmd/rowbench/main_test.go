package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs the command in-process and returns what it printed.
func capture(args ...string) (stdout, stderr string, code int) {
	var o, e strings.Builder
	code = run(args, &o, &e)
	return o.String(), e.String(), code
}

// TestTablesMatchGoldens: testdata holds the tables rowbench printed
// before the figures' cells went through one call, at a scale small
// enough for a unit test. Every table, in every output format, must be
// byte for byte what it was, sequentially and on four workers.
func TestTablesMatchGoldens(t *testing.T) {
	scale := []string{"-cores", "4", "-instrs", "1000", "-workloads", "sps,pc", "-q"}
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"all.txt", []string{"-all"}},
		{"extra.txt", []string{"-scaling", "-locks", "-stability"}},
		{"fig9.csv", []string{"-fig", "9", "-format", "csv"}},
		{"fig9.chart", []string{"-fig", "9", "-format", "chart"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		for _, jobs := range []string{"1", "4"} {
			args := append(append([]string{"-jobs", jobs}, tc.args...), scale...)
			out, stderr, code := capture(args...)
			if code != 0 || stderr != "" || out != string(want) {
				t.Errorf("%v: exit %d, stderr %q, stdout differs from testdata/%s:\n%s", args, code, stderr, tc.golden, out)
			}
		}
	}
}

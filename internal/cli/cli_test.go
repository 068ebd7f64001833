package cli

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"

	"rowsim/internal/lifecycle"
	"rowsim/internal/sim"
)

// TestParse: -h ends the command with 0 and a bad flag with 2, both
// with the message on the command's stderr.
func TestParse(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		ok     bool
		stderr string
	}{
		{[]string{"-n", "3"}, 0, true, ""},
		{[]string{"-h"}, 0, false, "Usage of tool:\n  -n int"},
		{[]string{"-n", "x"}, 2, false, `invalid value "x" for flag -n`},
		{[]string{"-bogus"}, 2, false, "flag provided but not defined: -bogus"},
	} {
		var stderr strings.Builder
		fs := NewFlagSet("tool", &stderr)
		fs.Int("n", 0, "a number")
		code, ok := Parse(fs, tc.args)
		if code != tc.code || ok != tc.ok || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%v: Parse = %d, %v, stderr %q; want %d, %v, %q", tc.args, code, ok, stderr.String(), tc.code, tc.ok, tc.stderr)
		}
	}
}

// TestLateErrorKeepsFirstCode: a heap profile or a journal that cannot
// be written turns a success into 1 and leaves any other code alone.
func TestLateErrorKeepsFirstCode(t *testing.T) {
	dir := t.TempDir()
	failures := map[string]func(code *int, stderr *strings.Builder){
		"profiling: ": func(code *int, stderr *strings.Builder) {
			fs := NewFlagSet("tool", stderr)
			p := AddProfile(fs)
			if err := fs.Parse([]string{"-memprofile", filepath.Join(dir, "missing", "mem.out")}); err != nil {
				t.Fatal(err)
			}
			if !p.Start(stderr) {
				t.Fatal(stderr)
			}
			p.Stop(code, stderr)
		},
		"journal error: ": func(code *int, stderr *strings.Builder) {
			j, err := lifecycle.Create(filepath.Join(t.TempDir(), "j.jsonl"), lifecycle.Record{Tool: "tool"})
			if err != nil {
				t.Fatal(err)
			}
			// A NaN does not encode: the append error is sticky, and Close returns it.
			j.Append(lifecycle.Record{Kind: "run", Key: "k", Result: &sim.Result{IPC: math.NaN()}})
			(&Sweep{Journal: j}).Close(code, stderr)
		},
	}
	for prefix, fail := range failures {
		for _, tc := range []struct{ code, want int }{{0, 1}, {1, 1}, {2, 2}, {130, 130}} {
			var stderr strings.Builder
			code := tc.code
			fail(&code, &stderr)
			if code != tc.want || !strings.HasPrefix(stderr.String(), prefix) {
				t.Errorf("%s after exit %d: exit %d, stderr %q; want %d", prefix, tc.code, code, stderr.String(), tc.want)
			}
		}
	}
}

// TestProfileWritesFiles: all three collectors write non-empty files,
// and a successful stop leaves the exit code alone.
func TestProfileWritesFiles(t *testing.T) {
	dir := t.TempDir()
	var args []string
	for _, name := range []string{"cpuprofile", "memprofile", "trace"} {
		args = append(args, "-"+name, filepath.Join(dir, name))
	}
	var stderr strings.Builder
	fs := NewFlagSet("tool", &stderr)
	p := AddProfile(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if !p.Start(&stderr) {
		t.Fatal(stderr.String())
	}
	code := 0
	p.Stop(&code, &stderr)
	if code != 0 || stderr.Len() != 0 {
		t.Fatalf("Stop: exit %d, stderr %q", code, stderr.String())
	}
	for _, name := range []string{"cpuprofile", "memprofile", "trace"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Error(err)
		} else if fi.Size() == 0 {
			t.Errorf("-%s wrote an empty file", name)
		}
	}
}

// TestProfileStartFailureStopsCollectors: when a collector cannot start
// (a -trace path under a regular file, which fails even as root), Start
// is a usage error that says why and leaves the CPU profile it already
// started stopped, so a new one can start.
func TestProfileStartFailureStopsCollectors(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr strings.Builder
	fs := NewFlagSet("tool", &stderr)
	p := AddProfile(fs)
	if err := fs.Parse([]string{"-cpuprofile", filepath.Join(dir, "cpu"), "-trace", filepath.Join(file, "trace")}); err != nil {
		t.Fatal(err)
	}
	if p.Start(&stderr) {
		p.stop()
		t.Fatal("Start succeeded with a -trace path under a regular file")
	}
	if !strings.HasPrefix(stderr.String(), "profiling: ") {
		t.Errorf("stderr %q does not say profiling failed", stderr.String())
	}
	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Fatalf("the CPU profile was left running: %v", err)
	}
	pprof.StopCPUProfile()
}

package main

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"rowsim/internal/core"
	"rowsim/internal/experiments"
)

// capture runs the command in-process and returns what it printed.
func capture(args ...string) (stdout, stderr string, code int) {
	var o, e strings.Builder
	code = run(args, &o, &e)
	return o.String(), e.String(), code
}

func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestInspectMatchesGoldens: the inspection flags print what the
// standalone trace inspector they replace printed; testdata holds that
// tool's output for the same traces (rowtrace -n 40 for -dump 40), and
// the SHA-256 of the file its -save wrote.
func TestInspectMatchesGoldens(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"pc_dump40.txt", []string{"-workload", "pc", "-dump", "40"}},
		{"cq_summary.txt", []string{"-workload", "cq", "-summary"}},
	} {
		out, stderr, code := capture(tc.args...)
		if code != 0 || out != golden(t, tc.golden) {
			t.Errorf("%v: exit %d, stderr %q, stdout differs from testdata/%s:\n%s", tc.args, code, stderr, tc.golden, out)
		}
	}

	f := filepath.Join(t.TempDir(), "sps.trace")
	out, stderr, code := capture("-workload", "sps", "-save", f, "-summary")
	if code != 0 || out != golden(t, "sps_save_summary.txt") || stderr != "wrote 32 cores to "+f+"\n" {
		t.Fatalf("-save -summary: exit %d, stderr %q, stdout:\n%s", code, stderr, out)
	}
	saved, err := os.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(saved)
	if got, want := hex.EncodeToString(sum[:]), strings.TrimSpace(golden(t, "sps_save.trace.sha256")); got != want {
		t.Errorf("saved trace file has SHA-256 %s, want %s", got, want)
	}
}

// TestSaveThenReplay: a run replayed from a -save file prints what the
// run that generates the same traces prints.
func TestSaveThenReplay(t *testing.T) {
	f := filepath.Join(t.TempDir(), "cq.trace")
	gen := []string{"-workload", "cq", "-cores", "4", "-instrs", "1500", "-seed", "3"}
	if out, stderr, code := capture(append(gen, "-save", f)...); code != 0 || out != "" {
		t.Fatalf("-save: exit %d, stdout %q, stderr %q", code, out, stderr)
	}
	want, _, code := capture(append(gen, "-percore")...)
	if code != 0 {
		t.Fatalf("generated run exited %d", code)
	}
	got, stderr, code := capture("-workload", "cq", "-cores", "4", "-tracefile", f, "-percore")
	if code != 0 || got != want {
		t.Errorf("replayed run: exit %d, stderr %q\n--- replayed ---\n%s--- generated ---\n%s", code, stderr, got, want)
	}
}

// TestInspectRejectsBadCore: -core outside the generated cores is a
// usage error.
func TestInspectRejectsBadCore(t *testing.T) {
	_, stderr, code := capture("-workload", "pc", "-cores", "2", "-instrs", "100", "-summary", "-core", "2")
	if code != 2 || stderr != "core 2 out of range [0,2)\n" {
		t.Errorf("exit %d, stderr %q; want 2", code, stderr)
	}
}

// TestFlagsMatchVariant: rowsim's -policy/-detect/-pred/-fwd flags name
// an experiments.Variant, so a run prints the cycles and issue split
// the figures' runner gets for that variant on the same traces. The
// cases beyond the first are sized so that each flag changes the
// result, so a flag that stops reaching the run fails one of them.
func TestFlagsMatchVariant(t *testing.T) {
	for _, tc := range []struct {
		wl, instrs string
		flags      []string
		v          experiments.Variant
	}{
		{"sps", "1000", []string{"-policy", "row", "-detect", "ew", "-pred", "ud", "-fwd=false"}, experiments.VarEWUD},
		{"pc", "3000", []string{"-policy", "row", "-detect", "rw", "-pred", "ud", "-fwd=false"}, experiments.VarRWUD},
		{"pc", "3000", []string{"-policy", "row", "-detect", "ew", "-pred", "sat", "-fwd=false"}, experiments.VarEWSat},
		{"cq", "3000", []string{"-policy", "row", "-detect", "ew", "-pred", "sat", "-fwd=false"}, experiments.VarEWSat},
		{"pc", "3000", []string{"-policy", "lazy", "-fwd=false"}, experiments.VarLazy},
		{"cq", "3000", []string{"-policy", "row", "-detect", "rwdir", "-pred", "sat"}, experiments.VarDirSatFwd},
	} {
		args := append([]string{"-workload", tc.wl, "-cores", "4", "-instrs", tc.instrs}, tc.flags...)
		out, stderr, code := capture(args...)
		if code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", args, code, stderr)
		}
		instrs, _ := strconv.Atoi(tc.instrs)
		r, err := experiments.NewRunner(experiments.Options{Cores: 4, Instrs: instrs, Workloads: []string{tc.wl}}).Run(tc.wl, tc.v)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range []string{
			fmt.Sprintf("cycles          %d\n", r.Cycles),
			fmt.Sprintf("issued          eager=%d lazy=%d forwarded=%d\n", r.EagerIssued, r.LazyIssued, r.ForwardedAtomics),
		} {
			if !strings.Contains(out, line) {
				t.Errorf("%v (%s): stdout lacks %q:\n%s", args, tc.v.Name, line, out)
			}
		}
	}
}

// TestVerboseLockTransitions: -v prints one line of the locking
// atomics' non-zero transition counts, summed over cores, named in the
// table's order; its issue counts are the "issued" line's.
func TestVerboseLockTransitions(t *testing.T) {
	out, stderr, code := capture("-workload", "sps", "-cores", "4", "-instrs", "2000", "-v")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	line := regexp.MustCompile(`(?m)^lock transitions((?: [a-z-]+=[1-9][0-9]*)+)$`).FindStringSubmatch(out)
	if line == nil {
		t.Fatalf("no lock transitions line of non-zero counts:\n%s", out)
	}
	order := map[string]int{}
	for tr := range core.NumTransitions {
		order[tr.String()] = int(tr)
	}
	got, last := map[string]string{}, -1
	for _, f := range strings.Fields(line[1]) {
		name, n, _ := strings.Cut(f, "=")
		i, ok := order[name]
		if !ok || i <= last {
			t.Fatalf("%q is not a transition named in table order: %s", name, line[0])
		}
		got[name], last = n, i
	}
	issued := regexp.MustCompile(`issued +eager=(\d+) lazy=(\d+)`).FindStringSubmatch(out)
	for i, name := range []string{"eager-issue", "lazy-issue"} {
		if n := cmp.Or(got[name], "0"); n != issued[i+1] {
			t.Errorf("%s=%s, but the issued line says %s", name, n, issued[i+1])
		}
	}
	if got["lock"] == "" || got["unlock"] == "" {
		t.Errorf("a run of locking atomics counted no lock or unlock: %s", line[0])
	}
}

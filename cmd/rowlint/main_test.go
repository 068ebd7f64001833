package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSummaryCountsSuppressions drives the CLI over the suppression
// fixture package: active findings (including the malformed-directive
// ones) force exit 1, and the summary line counts the suppressions
// separately — a silent suppression would show up here as a wrong
// count.
func TestRunSummaryCountsSuppressions(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"../../internal/lint/testdata/src/suppress/sim"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (fixture has active findings); stderr: %s", code, errOut.String())
	}
	got := out.String()
	if !strings.Contains(got, "rowlint: 7 finding(s), 1 suppressed, 1 package(s)") {
		t.Errorf("summary line missing or wrong in output:\n%s", got)
	}
	if !strings.Contains(got, "missing the mandatory reason") {
		t.Errorf("malformed directive (missing reason) not reported:\n%s", got)
	}
	if !strings.Contains(got, "unknown analyzer mapsort") {
		t.Errorf("malformed directive (unknown analyzer) not reported:\n%s", got)
	}
	if strings.Contains(got, "order-independent") {
		t.Errorf("suppressed finding printed without -v:\n%s", got)
	}
}

// TestRunVerboseListsSuppressed: -v prints suppressed findings with
// their recorded reasons.
func TestRunVerboseListsSuppressed(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-v", "../../internal/lint/testdata/src/suppress/sim"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "(suppressed: boolean OR is order-independent)") {
		t.Errorf("-v did not list the suppressed finding with its reason:\n%s", out.String())
	}
}

// TestRunRejectsUnknownAnalyzer: the -only flag validates names.
func TestRunRejectsUnknownAnalyzer(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-only", "nope", "."}, &out, &errOut); code != 2 {
		t.Fatalf("exit code = %d, want 2 for unknown analyzer", code)
	}
	if !strings.Contains(errOut.String(), `unknown analyzer "nope"`) {
		t.Errorf("missing error text: %s", errOut.String())
	}
}

// TestRunOnlySelectsAnalyzers: -only restricts the analyzer set (the
// pre-commit fast path). The wallclock fixture's core package trips
// both wallclock and maporder; -only maporder must report exactly the
// maporder finding.
func TestRunOnlySelectsAnalyzers(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-only", "maporder", "../../internal/lint/testdata/src/wallclock/core"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, errOut.String())
	}
	got := out.String()
	if !strings.Contains(got, "rowlint: 1 finding(s), 0 suppressed, 1 package(s)") {
		t.Errorf("summary line missing or wrong with -only maporder:\n%s", got)
	}
	if !strings.Contains(got, "maporder:") || strings.Contains(got, "wallclock:") {
		t.Errorf("-only maporder did not report exactly maporder's finding:\n%s", got)
	}
}

// TestRunJSONOutput: -json keeps stdout parseable (the array is the
// only thing on it) and loses no suppression reason.
func TestRunJSONOutput(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-json", "../../internal/lint/testdata/src/suppress/sim"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, errOut.String())
	}
	var findings []struct {
		File       string `json:"file"`
		Line       int    `json:"line"`
		Analyzer   string `json:"analyzer"`
		Message    string `json:"message"`
		Suppressed bool   `json:"suppressed"`
		Reason     string `json:"reason"`
	}
	if err := json.Unmarshal([]byte(out.String()), &findings); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, out.String())
	}
	if len(findings) != 8 {
		t.Fatalf("got %d findings, want 8 (7 active + 1 suppressed)", len(findings))
	}
	reasons := 0
	for _, f := range findings {
		if f.File == "" || f.Line == 0 || f.Analyzer == "" || f.Message == "" {
			t.Errorf("finding missing fields: %+v", f)
		}
		if f.Suppressed {
			if f.Reason == "" {
				t.Errorf("suppressed finding lost its reason: %+v", f)
			}
			reasons++
		}
	}
	if reasons != 1 {
		t.Errorf("got %d suppressed findings, want 1", reasons)
	}
}

// TestRunChanged drives -changed against a throwaway git repository:
// a clean tree lints nothing (exit 0 with a note), an edit brings the
// package back into the linted set, and an untracked file counts too.
func TestRunChanged(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	dir := t.TempDir()
	git := func(args ...string) {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-C", dir,
			"-c", "user.name=t", "-c", "user.email=t@t"}, args...)...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
	}
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module tmpmod\n\ngo 1.22\n")
	write("tiny/tiny.go", "package tiny\n\nfunc F() int { return 1 }\n")
	git("init", "-q")
	git("add", ".")
	git("commit", "-q", "-m", "seed")

	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(cwd)

	// Clean tree: nothing to lint, and that is success, not an error.
	var out, errOut strings.Builder
	if code := run([]string{"-changed", "./..."}, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d, want 0 on a clean tree; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "no packages changed since HEAD") {
		t.Errorf("missing clean-tree note: %s", errOut.String())
	}

	// An unstaged edit brings the package back.
	write("tiny/tiny.go", "package tiny\n\nfunc F() int { return 2 }\n")
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-changed", "./..."}, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d, want 0 (clean package); stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "0 finding(s), 0 suppressed, 1 package(s)") {
		t.Errorf("edited package not linted:\n%s", out.String())
	}

	// -changed=<ref> and untracked files: a new package counts against
	// an explicit ref as well.
	git("add", ".")
	git("commit", "-q", "-m", "edit")
	write("fresh/fresh.go", "package fresh\n\nfunc G() int { return 3 }\n")
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-changed=HEAD", "./..."}, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "1 package(s)") {
		t.Errorf("untracked package not picked up:\n%s", out.String())
	}
}

package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rowsim/internal/sim"
)

// capture runs the command in-process and returns what it printed.
func capture(args ...string) (stdout, stderr string, code int) {
	var o, e strings.Builder
	code = run(args, &o, &e)
	return o.String(), e.String(), code
}

// TestResumesParentJournal resumes journals older builds wrote,
// SIGKILLed mid-sweep with `-jobs 1 -journal ...`:
//
//   - testdata/parent_killed.jsonl, from a build of this model
//     (`-workload sps -param sharedfrac -values 0.1,0.3,0.5,0.7,0.9
//     -cores 8 -instrs 20000`, after 7 of 15 cells);
//   - testdata/parent_sched_cycle.jsonl, from the last build that took
//     -sched (`-workload pc -param hotlines -values 1,4,16 -cores 4
//     -instrs 40000 -sched cycle`, after 4 of 9 cells), which ran model
//     0 and so wrote no "model" field.
//
// This build must resume the first — same journal format, same cell
// keys, same definition hash — re-run only the missing cells and print
// what an uninterrupted sweep prints. A journal of another model must
// instead be kept beside a fresh journal, with one warning, and every
// cell re-run: the second, whose "sched" this build has no flag for,
// and the first with its meta restamped as sim.ModelVersion+1.
func TestResumesParentJournal(t *testing.T) {
	for _, tc := range []struct {
		name, fixture string
		def           []string
		cores         string
		served, rerun int
		model         int // the model the journal is from
	}{
		{"parent_killed.jsonl", "parent_killed.jsonl", []string{"-workload", "sps", "-param", "sharedfrac", "-values", "0.1,0.3,0.5,0.7,0.9",
			"-cores", "8", "-instrs", "20000"}, "8", 7, 8, sim.ModelVersion},
		{"parent_sched_cycle.jsonl", "parent_sched_cycle.jsonl", []string{"-workload", "pc", "-param", "hotlines", "-values", "1,4,16",
			"-cores", "4", "-instrs", "40000"}, "4", 0, 9, 0},
		{"other model starts fresh", "parent_killed.jsonl", []string{"-workload", "sps", "-param", "sharedfrac", "-values", "0.1,0.3,0.5,0.7,0.9",
			"-cores", "8", "-instrs", "20000"}, "8", 0, 15, sim.ModelVersion + 1},
	} {
		name, otherModel := tc.name, tc.model != sim.ModelVersion
		t.Run(name, func(t *testing.T) {
			fixture, err := os.ReadFile(filepath.Join("testdata", tc.fixture))
			if err != nil {
				t.Fatal(err)
			}
			if tc.model > sim.ModelVersion {
				fixture = bytes.Replace(fixture, fmt.Appendf(nil, `"model":%d`, sim.ModelVersion), fmt.Appendf(nil, `"model":%d`, tc.model), 1)
			}
			journal := filepath.Join(t.TempDir(), "sweep.jsonl")
			if err := os.WriteFile(journal, fixture, 0o644); err != nil {
				t.Fatal(err)
			}
			want, _, code := capture(append(tc.def, "-format", "csv")...)
			if code != 0 {
				t.Fatalf("uninterrupted sweep exited %d", code)
			}

			// A definition flag that contradicts the journal is refused...
			_, stderr, code := capture("-resume", journal, "-cores", "16")
			if code != 2 || !strings.Contains(stderr, `-cores: journal has "`+tc.cores+`", resume computed "16"`) {
				t.Fatalf("conflicting -cores: exit %d, stderr %q", code, stderr)
			}
			// ...one that agrees, and flags outside the definition, are not.
			got, stderr, code := capture("-resume", journal, "-cores", tc.cores, "-jobs", "2", "-format", "csv")
			if code != 0 {
				t.Fatalf("resume exited %d: %s", code, stderr)
			}
			if got != want {
				t.Errorf("resumed sweep differs from an uninterrupted one:\n--- resumed ---\n%s--- uninterrupted ---\n%s", got, want)
			}
			if n := strings.Count(stderr, "resumed from journal"); n != tc.served {
				t.Errorf("%d cells served from the parent's journal, want %d:\n%s", n, tc.served, stderr)
			}
			if n := strings.Count(stderr, "ok (1 attempt(s))"); n != tc.rerun {
				t.Errorf("%d cells re-run, want %d:\n%s", n, tc.rerun, stderr)
			}
			if n := strings.Count(stderr, "starting fresh"); (n == 1) != otherModel || n > 1 {
				t.Errorf("%d other-model warnings (other model: %v):\n%s", n, otherModel, stderr)
			}
			if kept, err := os.ReadFile(fmt.Sprintf("%s.model%d", journal, tc.model)); otherModel && !bytes.Equal(kept, fixture) {
				t.Errorf("other model's journal not kept: %v", err)
			}
		})
	}
}

// TestProfileWriteFailureExits1: a heap profile that cannot be written
// fails the run even though the sweep itself succeeded.
func TestProfileWriteFailureExits1(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing", "m.out")
	out, stderr, code := capture("-values", "0.5", "-cores", "2", "-instrs", "200", "-memprofile", missing)
	if code != 1 || !strings.Contains(stderr, "profiling:") || !strings.Contains(out, "Sweep of sharedfrac") {
		t.Fatalf("exit %d, want 1 with the table and a profiling error; stderr %q", code, stderr)
	}
}

// TestBadFlagLeavesNoJournal: a bad -values, or the -sched older builds
// took, is refused while the flags are parsed, before the journal
// exists, so the same command with the value fixed starts a fresh sweep
// instead of finding a journal whose definition no run can use.
func TestBadFlagLeavesNoJournal(t *testing.T) {
	for _, tc := range []struct{ flag, value, stderr string }{
		{"-sched", "event", "flag provided but not defined: -sched"},
		{"-values", "0.5,x", `bad value "x"`},
	} {
		journal := filepath.Join(t.TempDir(), "j.jsonl")
		_, stderr, code := capture("-journal", journal, tc.flag, tc.value)
		if code != 2 || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("%s %s: exit %d, stderr %q; want 2", tc.flag, tc.value, code, stderr)
		}
		if _, err := os.Stat(journal); !os.IsNotExist(err) {
			t.Errorf("%s %s left a journal behind (stat: %v)", tc.flag, tc.value, err)
		}
	}
}

// TestDeadlineInterruptsResumably: a sweep whose -deadline passes
// before it finishes exits 130 and names the command that resumes it,
// and that command prints what an uninterrupted sweep prints.
func TestDeadlineInterruptsResumably(t *testing.T) {
	def := []string{"-values", "0.2,0.8", "-cores", "2", "-instrs", "4000", "-format", "csv"}
	want, _, code := capture(def...)
	if code != 0 {
		t.Fatalf("uninterrupted sweep: exit %d", code)
	}
	journal := filepath.Join(t.TempDir(), "j.jsonl")
	out, stderr, code := capture(append(def, "-deadline", "1ms", "-journal", journal)...)
	if code != 130 || out != "" || !strings.Contains(stderr, "sweep interrupted — resume with: rowsweep -resume "+journal+"\n") {
		t.Fatalf("-deadline 1ms: exit %d, stdout %q, stderr %q; want 130 and the resume command", code, out, stderr)
	}
	got, stderr, code := capture("-resume", journal, "-format", "csv")
	if code != 0 || got != want {
		t.Fatalf("-resume: exit %d, printed\n%s\nwant\n%s\nstderr: %s", code, got, want, stderr)
	}
}

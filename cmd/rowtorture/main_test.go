package main

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"rowsim/internal/faults"
	"rowsim/internal/lifecycle"
	"rowsim/internal/sim"
	"rowsim/internal/torture"
)

// capture runs the command in-process and returns what it printed.
func capture(args ...string) (stdout, stderr string, code int) {
	var o, e strings.Builder
	code = run(args, &o, &e)
	return o.String(), e.String(), code
}

// TestResumesParentJournal: testdata/parent_killed.jsonl was written by
// a rowtorture build of this model (`rowtorture -n 60 -seed 2026
// -workers 1 -journal ...`, SIGKILLed after 25 of 60 runs). This build
// must resume it and end with the journal an uninterrupted sweep
// writes: the same definition and 60 keys, each ok with the same
// result. A -resume that contradicts the journaled definition exits 2,
// as rowsweep's does. The same journal restamped with another
// sim.ModelVersion is kept beside a fresh one, and all 60 runs re-run
// after one warning.
func TestResumesParentJournal(t *testing.T) {
	fixture, err := os.ReadFile("testdata/parent_killed.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	clean := filepath.Join(t.TempDir(), "clean.jsonl")
	wantOut, stderr, code := capture("-n", "60", "-seed", "2026", "-journal", clean)
	if code != 0 {
		t.Fatalf("uninterrupted sweep exited %d: %s%s", code, wantOut, stderr)
	}
	want, _, err := lifecycle.Load(clean)
	if err != nil {
		t.Fatal(err)
	}

	for _, otherModel := range []bool{false, true} {
		name := "same model resumes"
		if otherModel {
			name = "other model starts fresh"
		}
		t.Run(name, func(t *testing.T) {
			parent := fixture
			if otherModel {
				parent = bytes.Replace(fixture, fmt.Appendf(nil, `"model":%d`, sim.ModelVersion), fmt.Appendf(nil, `"model":%d`, sim.ModelVersion+1), 1)
			}
			journal := filepath.Join(t.TempDir(), "torture.jsonl")
			if err := os.WriteFile(journal, parent, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, conflict := range [][]string{{"-n", "500"}, {"-seed", "7"}, {"-cores", "4"}, {"-instrs", "1000"},
				{"-replay-every", "0"}, {"-max-cycles", "9"}} {
				_, stderr, code := capture(append([]string{"-resume", journal}, conflict...)...)
				if code != 2 || !strings.Contains(stderr, "produced by a different sweep definition ("+conflict[0]+":") {
					t.Errorf("conflicting %v: exit %d, stderr %q", conflict, code, stderr)
				}
			}
			out, stderr, code := capture("-resume", journal, "-n", "60", "-timeout", "1m")
			served := strings.Contains(out, "torture: 60 runs, ") && strings.Contains(out, " 0 failures, 25 resumed from journal")
			if otherModel {
				served = out == wantOut // every run re-run: the uninterrupted line
			}
			if code != 0 || !served {
				t.Fatalf("resume: exit %d, %q\n%s", code, out, stderr)
			}
			if n := strings.Count(stderr, "starting fresh"); (n == 1) != otherModel || n > 1 {
				t.Errorf("%d other-model warnings:\n%s", n, stderr)
			}

			got, _, err := lifecycle.Load(journal)
			if err != nil {
				t.Fatal(err)
			}
			if otherModel {
				kept, err := os.ReadFile(fmt.Sprintf("%s.model%d", journal, sim.ModelVersion+1))
				if !bytes.Equal(kept, parent) {
					t.Errorf("other model's journal not kept: %v", err)
				}
			}
			if !maps.Equal(got.Meta.Args, want.Meta.Args) {
				t.Errorf("definition: resumed journal has %v, this build writes %v", got.Meta.Args, want.Meta.Args)
			}
			if len(got.Runs) != 60 || len(want.Runs) != 60 {
				t.Fatalf("resumed journal has %d runs, uninterrupted %d, want 60", len(got.Runs), len(want.Runs))
			}
			for key, w := range want.Runs {
				g, ok := got.Completed(key)
				if !ok || w.Result == nil || *g.Result != *w.Result {
					t.Errorf("%s: resumed journal has %+v, uninterrupted %+v", key, g, w)
				}
			}
		})
	}
}

// TestBadListLeavesNoJournal: a malformed list flag is refused while
// the flags are parsed, before the journal exists.
func TestBadListLeavesNoJournal(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "j.jsonl")
	if _, stderr, code := capture("-journal", journal, "-cores", "4,x"); code != 2 || !strings.Contains(stderr, "bad integer list") {
		t.Fatalf("-cores 4,x: exit %d, stderr %q; want 2", code, stderr)
	}
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Errorf("-cores 4,x left a journal behind (stat: %v)", err)
	}
}

// shellSplit splits a command line into words as a POSIX shell does,
// for the quoting the tools print: single quotes keep their text
// verbatim; inside double quotes a backslash escapes $ ` " and \.
func shellSplit(t *testing.T, line string) []string {
	t.Helper()
	var words []string
	var w strings.Builder
	inWord := false
	for i := 0; i < len(line); i++ {
		switch c := line[i]; c {
		case ' ':
			if inWord {
				words = append(words, w.String())
				w.Reset()
				inWord = false
			}
		case '\'':
			j := strings.IndexByte(line[i+1:], '\'')
			if j < 0 {
				t.Fatalf("unterminated ' in %q", line)
			}
			w.WriteString(line[i+1 : i+1+j])
			i += j + 1
			inWord = true
		case '"':
			j := i + 1
			for ; j < len(line) && line[j] != '"'; j++ {
				if line[j] == '\\' && j+1 < len(line) && strings.IndexByte("$`\"\\", line[j+1]) >= 0 {
					j++
				}
				w.WriteByte(line[j])
			}
			if j == len(line) {
				t.Fatalf("unterminated \" in %q", line)
			}
			i = j
			inWord = true
		default:
			w.WriteByte(c)
			inWord = true
		}
	}
	if inWord {
		words = append(words, w.String())
	}
	return words
}

// TestReproLineRuns: the line a failed run prints is a command this
// tool accepts. Run as a shell would split it, it prints the same line
// and re-executes the same run: its outcome is the spec's own.
func TestReproLineRuns(t *testing.T) {
	fc, err := faults.ParseSpec("jitter=0.5:16,reorder=0.05:64")
	if err != nil {
		t.Fatal(err)
	}
	rs := torture.RunSpec{
		Seed: 0x3a41, Workload: "cq", Variant: "RW+Dir_Sat", Cores: 4, Instrs: 800, Faults: fc,
		MaxCycles: 20_000_000, // the flag's default
	}
	words := shellSplit(t, rs.ReproLine())
	if words[0] != "rowtorture" {
		t.Fatalf("repro line %q does not start with the command", rs.ReproLine())
	}
	stdout, stderr, code := capture(words[1:]...)
	res, err := torture.Execute(rs)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%s\nok: %d cycles, %d committed, IPC %.2f, %d network messages\n",
		rs.ReproLine(), res.Cycles, res.Committed, res.IPC, res.NetworkMessages)
	if code != 0 || stdout != want {
		t.Fatalf("%v: exit %d, printed\n%s%s\nwant exit 0 and\n%s", words, code, stdout, stderr, want)
	}
}

// TestReproWantsSingleValues: repro mode runs one configuration, so a
// list where it wants one value is a usage error, not a sweep.
func TestReproWantsSingleValues(t *testing.T) {
	for _, flag := range []string{"-cores", "-instrs"} {
		stdout, stderr, code := capture("-wl", "cq", flag, "4,8")
		if code != 2 || stdout != "" || !strings.Contains(stderr, `repro mode wants a single value, got "4,8"`) {
			t.Errorf("-wl cq %s 4,8: exit %d, stdout %q, stderr %q; want exit 2 naming the list", flag, code, stdout, stderr)
		}
	}
}

// TestReplaysRowcheckWitnesses closes the loop from the model checker
// to this tool: each `replay:` line rowcheck prints for a seeded bug,
// split as a shell would, reproduces the violation here (exit 1), and
// the same witness without its bug replays cleanly (exit 0).
func TestReplaysRowcheckWitnesses(t *testing.T) {
	rowcheck := filepath.Join(t.TempDir(), "rowcheck")
	if out, err := exec.Command("go", "build", "-o", rowcheck, "rowsim/cmd/rowcheck").CombinedOutput(); err != nil {
		t.Fatalf("build rowcheck: %v\n%s", err, out)
	}
	for _, bug := range []string{"getx-as-gets", "drop-unblock", "drop-inv"} {
		out, _ := exec.Command(rowcheck, "-cores", "2", "-lines", "1", "-banks", "1", "-ops", "3", "-bug", bug).Output()
		var line string
		for _, l := range strings.Split(string(out), "\n") {
			if rest, ok := strings.CutPrefix(strings.TrimSpace(l), "replay: "); ok {
				line = rest
			}
		}
		words := shellSplit(t, line)
		if len(words) != 3 || words[0] != "rowtorture" || words[1] != "-replay" {
			t.Fatalf("-bug %s: no replay line of the form rowtorture -replay '<spec>' in\n%s", bug, out)
		}
		stdout, stderr, code := capture(words[1:]...)
		if code != 1 || !strings.HasPrefix(stdout, "reproduced [") {
			t.Errorf("-bug %s: %v: exit %d, printed %q %q; want exit 1 and reproduced [", bug, words, code, stdout, stderr)
		}
		fixed := strings.Replace(words[2], " bug="+bug, "", 1)
		if fixed == words[2] {
			t.Fatalf("-bug %s: the witness %q does not name its bug", bug, words[2])
		}
		stdout, stderr, code = capture("-replay", fixed)
		if code != 0 || !strings.HasPrefix(stdout, "ok: witness replayed cleanly") {
			t.Errorf("-bug %s without the bug: exit %d, printed %q %q; want exit 0", bug, code, stdout, stderr)
		}
	}
	if _, stderr, code := capture("-replay", "mcheck v1 garbage"); code != 2 || stderr == "" {
		t.Errorf("a garbage witness: exit %d, stderr %q; want exit 2 with the reason", code, stderr)
	}
}

package main

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rowsim/internal/lifecycle"
	"rowsim/internal/sim"
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
				{"-replay-every", "0"}, {"-check-every", "1"}, {"-max-cycles", "9"}} {
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

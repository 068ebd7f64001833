package main

import (
	"encoding/json"
	"fmt"
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

// TestStateCountsMatchRecord: three invocations, each an exhaustive
// eager and lazy search, explore exactly the states, transitions and
// depth scripts/rowcheck_states.txt records, one line a search. A change to the protocol, the directory or the state
// encoding that moves a count fails here; one that moves it on purpose
// updates the file and says why.
func TestStateCountsMatchRecord(t *testing.T) {
	want, err := os.ReadFile("../../scripts/rowcheck_states.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, search := range [][]string{
		{"-cores", "2", "-lines", "1", "-banks", "1", "-ops", "3"},
		{"-cores", "2", "-lines", "2", "-banks", "2", "-ops", "3"},
		{"-cores", "3", "-lines", "1", "-banks", "1", "-ops", "2"},
	} {
		path := filepath.Join(t.TempDir(), "report.json")
		stdout, stderr, code := capture(append(search, "-q", "-bench-json", path)...)
		if code != 0 {
			t.Fatalf("rowcheck %s exited %d:\n%s%s", strings.Join(search, " "), code, stdout, stderr)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		for _, e := range rep.Entries {
			fmt.Fprintf(&got, "%s %d %d %d\n", e.Name, e.Visited, e.Transitions, e.MaxDepth)
		}
	}
	if got.String() != string(want) {
		t.Errorf("explored state space differs from scripts/rowcheck_states.txt:\ngot\n%swant\n%s", got.String(), want)
	}
}

// TestSeededBugsFail: every seeded protocol mutation is caught, exits
// 1 and prints a replayable counterexample. One that survives means the
// invariants or the state enumeration lost coverage.
func TestSeededBugsFail(t *testing.T) {
	for _, bug := range []string{"getx-as-gets", "drop-unblock", "drop-inv"} {
		stdout, stderr, code := capture("-cores", "2", "-lines", "1", "-banks", "1", "-ops", "3", "-bug", bug)
		if code != 1 || !strings.Contains(stdout, "replay: rowtorture -replay ") {
			t.Errorf("-bug %s: exit %d, want 1 with a replay line:\n%s%s", bug, code, stdout, stderr)
		}
	}
}

package mcheck

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden witness files")

// TestCleanMatrix exhausts the smallest configuration under each
// mode: the unmodified protocol must satisfy every invariant in the
// entire reachable state space.
func TestCleanMatrix(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		t.Run(modeName(lazy), func(t *testing.T) {
			res, err := Check(Config{Cores: 2, Lines: 1, Banks: 1, Ops: 3, Lazy: lazy})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Truncated {
				t.Fatal("search truncated without a cap")
			}
			if res.Violation != nil {
				t.Fatalf("clean protocol violated %s: %s\nspec: %s",
					res.Violation.Kind, res.Violation.Detail, res.Violation.Spec)
			}
			if res.Stats.Visited < 100 {
				t.Fatalf("suspiciously small state space: %d states", res.Stats.Visited)
			}
		})
	}
}

// TestSeededBugsCaught seeds each protocol mutation at its delivery
// point and requires the search to find a violation of the expected
// class, with a witness that replays strictly.
func TestSeededBugsCaught(t *testing.T) {
	cases := []struct {
		bug   string
		kinds []string // acceptable invariant classes
	}{
		{"getx-as-gets", []string{"swmr", "owner", "data-value"}},
		{"drop-unblock", []string{"stuck-blocked", "deadlock"}},
		{"drop-inv", []string{"stuck-blocked", "deadlock"}},
	}
	for _, tc := range cases {
		t.Run(tc.bug, func(t *testing.T) {
			res, err := Check(Config{
				Cores: 2, Lines: 1, Banks: 1, Ops: 3, Bug: tc.bug,
			})
			if err != nil {
				t.Fatal(err)
			}
			v := res.Violation
			if v == nil {
				t.Fatalf("seeded bug %s not caught (%d states explored)", tc.bug, res.Stats.Visited)
			}
			found := false
			for _, k := range tc.kinds {
				if v.Kind == k {
					found = true
				}
			}
			if !found {
				t.Fatalf("bug %s flagged as %q, want one of %v", tc.bug, v.Kind, tc.kinds)
			}
			// The shrunk witness must replay strictly and reproduce the
			// same invariant class.
			rep, err := Replay(v.Spec)
			if err != nil {
				t.Fatalf("witness does not replay: %v\nspec: %s", err, v.Spec)
			}
			if rep.Violation == nil || rep.Violation.Kind != v.Kind {
				t.Fatalf("replay did not reproduce %s violation\nspec: %s", v.Kind, v.Spec)
			}
		})
	}
}

// TestGoldenCounterexample pins the exact shrunk witness for the
// getx-as-gets mutation. The search, shrinker and canonical hashing are
// all deterministic, so the witness is stable; a change here means the
// checker's exploration order or the shrinker changed, which is worth a
// deliberate golden update (-update).
func TestGoldenCounterexample(t *testing.T) {
	res, err := Check(Config{Cores: 2, Lines: 1, Banks: 1, Ops: 3, Bug: "getx-as-gets"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("seeded bug not caught")
	}
	got := res.Violation.Spec + "\n"
	golden := filepath.Join("testdata", "getx_as_gets.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("witness drifted from golden\ngot:  %swant: %s", got, want)
	}
	// The golden spec itself must stay replayable.
	rep, err := Replay(strings.TrimSpace(string(want)))
	if err != nil {
		t.Fatalf("golden spec does not replay: %v", err)
	}
	if rep.Violation == nil {
		t.Fatal("golden spec replayed without reproducing the violation")
	}
}

// TestReplayRejectsBadSpecs covers spec-parsing and strict-replay
// failure modes.
func TestReplayRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name, spec string
		names      string // the error names this, when set
	}{
		{"empty", "", ""},
		{"wrong-magic", "rowtorture v1 cores=2", ""},
		{"bad-field", "mcheck v1 cores=2 lines=1 banks=1 mode=eager prog=L0/L0 bogus=1", ""},
		{"bad-mode", "mcheck v1 cores=2 lines=1 banks=1 mode=sideways prog=L0/L0", ""},
		{"prog-count", "mcheck v1 cores=2 lines=1 banks=1 mode=eager prog=L0", ""},
		{"line-range", "mcheck v1 cores=2 lines=1 banks=1 mode=eager prog=L5/L0", ""},
		{"dead-label", "mcheck v1 cores=2 lines=1 banks=1 mode=eager prog=L0/L0 trace=x0.0", ""},
		// Older builds printed far atomics as F<line>; the model has none.
		{"far-op", "mcheck v1 cores=2 lines=1 banks=1 mode=eager prog=R0.F0/L0 trace=i0", `"F0"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Replay(tc.spec)
			if err == nil {
				t.Fatalf("spec %q accepted", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.names) {
				t.Fatalf("spec %q: %v, want an error naming %s", tc.spec, err, tc.names)
			}
		})
	}
}

// TestSpecRoundTrip formats and reparses a config, requiring identical
// rendered output (the property rowtorture -replay depends on).
func TestSpecRoundTrip(t *testing.T) {
	cfg := Config{
		Cores: 3, Lines: 2, Banks: 2, Lazy: true, Bug: "drop-inv",
		Progs: [][]Op{
			{{OpRMW, 0}, {OpLoad, 1}},
			{{OpStore, 1}, {OpRMW, 0}},
			{{OpLoad, 0}},
		},
	}
	trace := []string{"i0", "d0-3", "x0.0"}
	spec := FormatSpec(cfg, trace)
	cfg2, trace2, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatSpec(cfg2, trace2); got != spec {
		t.Fatalf("round trip drifted:\n%s\n%s", spec, got)
	}
}

// TestLostRequestIsDeadlock seeds a loss no Config.Bug can: core 0's
// load request vanishes from the network before any bank sees it. No
// line is blocked, so the leaf is a deadlock, not stuck-blocked, and
// its detail must name the core and the line its miss waits on.
func TestLostRequestIsDeadlock(t *testing.T) {
	m, err := NewModel(Config{Cores: 1, Lines: 1, Banks: 1, Progs: [][]Op{{{Kind: OpLoad, Line: 0}}}})
	if err != nil {
		t.Fatal(err)
	}
	m.settle()
	applyTrace(t, m, []string{"i0"})
	lost := m.mesh.Deliverables(nil)
	if len(lost) != 1 {
		t.Fatalf("issuing the load queued %d messages, want its one request", len(lost))
	}
	m.mesh.TakeSeq(lost[0].Seq)
	if ch := m.enabled(nil); len(ch) != 0 {
		t.Fatalf("choices left after the loss: %v", ch)
	}
	m.checkTerminal()
	want := "no enabled choice but 1 ops incomplete: core 0: line 0x0 GetS sent at cycle 3 (dataArrived=false acks=0)"
	if m.viol == nil || m.viol.Kind != "deadlock" || m.viol.Detail != want {
		t.Fatalf("verdict %v; want a deadlock detailed %q", m.viol, want)
	}
}

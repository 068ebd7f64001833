package torture

import (
	"context"
	"errors"
	"strings"
	"testing"

	"rowsim/internal/coherence"
	"rowsim/internal/faults"
	"rowsim/internal/sim"
)

// TestSmallSweep runs a miniature torture sweep end to end; every run
// must pass and the replay sample must be deterministic.
func TestSmallSweep(t *testing.T) {
	sum := Torture(Options{
		Runs:        10,
		Seed:        21,
		Cores:       []int{4},
		Instrs:      []int{500},
		ReplayEvery: 3,
		MaxCycles:   5_000_000,
	})
	if !sum.OK() {
		t.Fatalf("sweep failed:\n%s", sum)
	}
	if sum.Runs != 10 || sum.Replayed == 0 {
		t.Fatalf("unexpected accounting: %s", sum)
	}
}

// TestSweepIsDeterministic: the same master seed derives the same specs.
func TestSweepIsDeterministic(t *testing.T) {
	opt := Options{Runs: 20, Seed: 9}.withDefaults()
	a, b := specs(opt), specs(opt)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("spec %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestExecuteMatchesReproLine: executing the same spec twice gives the
// identical result — what makes a printed repro line trustworthy.
func TestExecuteMatchesReproLine(t *testing.T) {
	spec := RunSpec{
		Seed:      0x1235,
		Workload:  "cq",
		Variant:   "RW+Dir_Sat",
		Cores:     4,
		Instrs:    500,
		Faults:    faults.Config{Seed: 4, JitterProb: 0.5, JitterMax: 16},
		MaxCycles: 5_000_000,
	}
	line := spec.ReproLine()
	for _, want := range []string{"rowtorture", "-seed 0x1235", "-wl cq", `-variant "RW+Dir_Sat"`, "jitter=0.5:16"} {
		if !strings.Contains(line, want) {
			t.Fatalf("repro line %q missing %q", line, want)
		}
	}
	// The fault spec embedded in the line must parse back to the config.
	fc, err := faults.ParseSpec(spec.Faults.Spec())
	if err != nil || fc != spec.Faults {
		t.Fatalf("fault spec round trip: %+v, %v", fc, err)
	}
	a, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("replay mismatch:\nfirst  %+v\nsecond %+v", a, b)
	}
}

// TestExecuteSchedulerEquivalence: a torture run is cross-checked, so
// it visits every cycle; the determinism replay a sweep makes of it
// runs the way every other command does, jumping between wake-ups, and
// must agree on everything but the visited-cycle count (faults on).
func TestExecuteSchedulerEquivalence(t *testing.T) {
	spec := RunSpec{
		Seed:      0x9d1,
		Workload:  "tas",
		Variant:   "Lazy",
		Cores:     4,
		Instrs:    500,
		Faults:    faults.Config{Seed: 6, JitterProb: 0.25, JitterMax: 12, ReorderProb: 0.05, ReorderMax: 64},
		MaxCycles: 5_000_000,
	}
	primary, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := replay(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if primary.CyclesVisited != primary.Cycles {
		t.Errorf("cross-checked run visited %d of %d cycles, want all", primary.CyclesVisited, primary.Cycles)
	}
	if again.CyclesVisited >= again.Cycles {
		t.Errorf("replay visited %d of %d cycles, want it to skip some", again.CyclesVisited, again.Cycles)
	}
	if primary.SchedNormalized() != again.SchedNormalized() {
		t.Fatalf("replay diverges:\nrun:    %+v\nreplay: %+v", primary, again)
	}
}

// TestIllegalFaultsAreDetected: a drop-everything config must be caught
// by the failure machinery (watchdog), never pass silently.
func TestIllegalFaultsAreDetected(t *testing.T) {
	_, err := Execute(RunSpec{
		Seed:      0x77,
		Workload:  "pc",
		Variant:   "Eager",
		Cores:     4,
		Instrs:    500,
		Faults:    faults.Config{Seed: 1, DropProb: 1},
		MaxCycles: 3_000_000,
	})
	if err == nil {
		t.Fatal("dropped messages went undetected")
	}
	if kind := Classify(err); kind != "deadlock" && kind != "cycle-limit" {
		t.Fatalf("unexpected failure kind %q for: %v", kind, err)
	}
}

// TestLostMessageFailsAsDeadlock: this spec's one drop stalls no
// core, so the run alone completes (the replay, which does not drain,
// passes); Execute drains it, finds a bank still blocked and fails as a
// deadlock.
func TestLostMessageFailsAsDeadlock(t *testing.T) {
	spec := RunSpec{
		Seed:      0x77,
		Workload:  "barnes",
		Variant:   "Eager",
		Cores:     4,
		Instrs:    500,
		Faults:    faults.Config{Seed: 1, DropProb: 0.001},
		MaxCycles: 3_000_000,
	}
	if _, err := replay(context.Background(), spec); err != nil {
		t.Fatalf("the run alone: %v", err)
	}
	_, err := Execute(spec)
	if kind := Classify(err); kind != "deadlock" || !strings.Contains(err.Error(), "blocked=true") {
		t.Fatalf("Execute: %q, want a deadlock naming a blocked line: %v", kind, err)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		kind string
	}{
		{&ReplayMismatchError{Detail: "x"}, "replay-mismatch"},
		{&coherence.ProtocolError{}, "protocol"},
		{&sim.DeadlockError{}, "deadlock"},
		{&sim.CycleLimitError{}, "cycle-limit"},
		{&sim.CoherenceViolationError{}, "coherence"},
		{errors.New("bad workload"), "setup"},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.kind {
			t.Errorf("Classify(%T) = %q, want %q", c.err, got, c.kind)
		}
	}
}

func TestLookupVariant(t *testing.T) {
	for _, name := range VariantNames() {
		if _, err := LookupVariant(name); err != nil {
			t.Errorf("LookupVariant(%q): %v", name, err)
		}
	}
	if _, err := LookupVariant("NoSuchVariant"); err == nil {
		t.Error("unknown variant accepted")
	}
}

package torture

import (
	"testing"

	"rowsim/internal/mcheck"
)

// TestClassifyMcheckInvariant: model-checker counterexamples replayed
// through the torture CLI are classified distinctly.
func TestClassifyMcheckInvariant(t *testing.T) {
	err := &mcheck.InvariantError{Kind: "swmr", Detail: "two writers"}
	if kind := Classify(err); kind != "mcheck-invariant" {
		t.Fatalf("Classify(InvariantError) = %q, want \"mcheck-invariant\"", kind)
	}
}

// TestReplayMismatchErrorText pins the report of a run whose replay
// disagreed with it: the reader must learn it is nondeterminism, not a
// protocol failure, and which numbers differed.
func TestReplayMismatchErrorText(t *testing.T) {
	err := &ReplayMismatchError{Detail: "cross-checked run 900 cycles / 40 messages, skipping replay 901 cycles / 40 messages"}
	want := "replay mismatch (nondeterministic run): cross-checked run 900 cycles / 40 messages, skipping replay 901 cycles / 40 messages"
	if got := err.Error(); got != want {
		t.Fatalf("got %q\nwant %q", got, want)
	}
}

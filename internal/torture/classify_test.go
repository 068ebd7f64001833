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

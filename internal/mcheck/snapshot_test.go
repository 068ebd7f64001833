package mcheck

import (
	"reflect"
	"testing"
)

// applyTrace drives the model through a label sequence, skipping labels
// that are not enabled (test traces are approximate steering, not
// strict witnesses).
func applyTrace(t *testing.T, m *Model, trace []string) int {
	t.Helper()
	applied := 0
	for _, lab := range trace {
		if ch, ok := m.findChoice(lab); ok {
			if !m.apply(ch) {
				t.Fatalf("violation while steering: %v", m.viol)
			}
			applied++
		}
	}
	return applied
}

// TestSnapshotRestoreRoundTrip snapshots a mid-flight state, mutates
// heavily, restores, and requires the re-taken snapshot to compare
// deep-equal — the property the DFS depends on for sibling isolation.
// Run under -race this also proves restore shares no mutable structure
// with the snapshot it came from.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	m, err := NewModel(Config{Cores: 2, Lines: 2, Banks: 2, Ops: 4})
	if err != nil {
		t.Fatal(err)
	}
	m.settle()
	// Steer into a state with in-flight misses, a blocked directory
	// entry and queued messages.
	applyTrace(t, m, []string{"i0", "i1", "i0", "d0-2", "d1-2"})

	before := m.snapshot()
	key := m.stateKey(buildPerms(&m.cfg))

	// Mutate: drive several more transitions.
	applyTrace(t, m, []string{"d2-0", "d0-3", "i1", "d1-3", "d3-1", "d2-1", "i0"})

	m.restore(before)
	after := m.snapshot()
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("snapshot drifted across restore:\nbefore: %+v\nafter:  %+v", before, after)
	}
	if k2 := m.stateKey(buildPerms(&m.cfg)); k2 != key {
		t.Fatalf("canonical key drifted across restore: %x vs %x", key, k2)
	}
	// The restored state must still satisfy the per-state invariants.
	m.checkState()
	if m.viol != nil {
		t.Fatalf("restored state violates invariants: %v", m.viol)
	}
}

// TestRestoreIsolation takes one snapshot, runs two different
// continuations from it, and requires both to start from the identical
// canonical state — no leakage from the first continuation into the
// second.
func TestRestoreIsolation(t *testing.T) {
	// Both cores' requests are deliverable independently (two
	// channels), so the two continuations below diverge.
	m, err := NewModel(Config{Cores: 2, Lines: 1, Banks: 1, Ops: 3})
	if err != nil {
		t.Fatal(err)
	}
	m.settle()
	applyTrace(t, m, []string{"i0", "i1"})
	snap := m.snapshot()
	perms := buildPerms(&m.cfg)
	base := m.stateKey(perms)

	applyTrace(t, m, []string{"d0-2", "d2-0", "i0"})
	k1 := m.stateKey(perms)
	m.restore(snap)
	if got := m.stateKey(perms); got != base {
		t.Fatalf("first restore drifted: %x vs %x", got, base)
	}
	applyTrace(t, m, []string{"d1-2", "d2-1"})
	k2 := m.stateKey(perms)
	m.restore(snap)
	if got := m.stateKey(perms); got != base {
		t.Fatalf("second restore drifted: %x vs %x", got, base)
	}
	if k1 == base || k2 == base {
		t.Fatal("continuations did not move the state (test is vacuous)")
	}
}

package coherence

import (
	"testing"

	"rowsim/internal/slab"
	"rowsim/internal/snapcheck"
)

// TestSnapshotCoversEveryField is the snapshot-completeness guard for
// the directory bank and its per-line entries.
func TestSnapshotCoversEveryField(t *testing.T) {
	snapcheck.Assert(t, Directory{}, []string{
		"now", "lines", "stalled", "l3", "Stats",
	}, map[string]string{
		"open":        "the number of blocked entries, recounted by Restore",
		"nodeID":      "construction-time identity",
		"bank":        "construction-time identity",
		"net":         "wiring; the mesh is snapshotted separately",
		"l3HitCycles": "construction-time latency constant",
		"dramCycles":  "construction-time latency constant",
		"sink":        "wiring; provably empty at checkpoint instants",
	})

	snapcheck.Assert(t, lineTable{}, []string{
		"chunks",
	}, map[string]string{
		"n":     "the number of entries in chunks, rebuilt by Restore",
		"base":  "the entries Restore added, set by it; sizes later chunks, not what they hold",
		"index": "where each line's entry is; Restore builds it anew from the lines",
		"shift": "the index's size, rebuilt with it",
	})

	snapcheck.Assert(t, dirEntry{}, []string{
		"line", "state", "owner", "sharers", "blocked", "pend",
		"queue", // captured as DirTxnSnap.Waiting, queued again by Restore
	}, nil)

	snapcheck.Assert(t, slab.Slab[Msg]{}, []string{"nodes"}, map[string]string{
		"free": "free list through the slab; Restore starts from an empty slab",
	})

	snapcheck.Assert(t, pending{}, []string{
		"requestor", "isWrite",
	}, nil)
}

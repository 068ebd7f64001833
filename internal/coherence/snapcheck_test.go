package coherence

import (
	"testing"

	"rowsim/internal/snapcheck"
)

// TestSnapshotCoversEveryField is the snapshot-completeness guard for
// the directory bank, its per-line entries and the message pool.
func TestSnapshotCoversEveryField(t *testing.T) {
	snapcheck.Assert(t, Directory{}, []string{
		"now", "lines", "queues", "l3", "Stats",
	}, map[string]string{
		"free":        "empty queues kept for reuse; Restore starts without any, and which queue a line holds is not observable",
		"nodeID":      "construction-time identity",
		"bank":        "construction-time identity",
		"net":         "wiring; the mesh is snapshotted separately",
		"l3HitCycles": "construction-time latency constant",
		"dramCycles":  "construction-time latency constant",
		"pool":        "wiring; pool counters are snapshotted separately as PoolSnap",
		"sink":        "wiring; provably empty at checkpoint instants",
		"hook":        "model-checker interposer, never set in checkpointed runs",
	})

	snapcheck.Assert(t, lineTable{}, []string{
		"chunks",
	}, map[string]string{
		"n":     "the number of entries in chunks, rebuilt by Restore",
		"index": "where each line's entry is; Restore builds it anew from the lines",
		"shift": "the index's size, rebuilt with it",
	})

	snapcheck.Assert(t, dirEntry{}, []string{
		"line", "state", "owner", "sharers", "blocked", "pend",
	}, map[string]string{
		"wait": "which queue holds the line's stalled requests; the requests are captured as DirTxnSnap.Waiting and Restore hands queues out afresh",
	})

	snapcheck.Assert(t, pending{}, []string{
		"requestor", "isWrite", "far", "farAcks", "farData",
	}, nil)

	snapcheck.Assert(t, MsgPool{}, []string{
		"gets", "puts",
	}, map[string]string{
		"free": "free-list members are by definition unreferenced; only the counters define Outstanding",
	})
}

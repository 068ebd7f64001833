package interconnect

import (
	"testing"

	"rowsim/internal/snapcheck"
)

// TestSnapshotCoversEveryField is the snapshot-completeness guard for
// the mesh and its in-flight event records.
func TestSnapshotCoversEveryField(t *testing.T) {
	snapcheck.Assert(t, Mesh{}, []string{
		"now", "seq", "events", "inboxes", "lastAt",
		"messages", "hopsSum",
	}, map[string]string{
		"cols":         "derived from the node count at construction",
		"rows":         "derived from the node count at construction",
		"nodes":        "construction-time configuration",
		"linkCycles":   "construction-time latency constant",
		"routerCycles": "construction-time latency constant",
		"baseCycles":   "construction-time latency constant",
		"perturb":      "wiring; the fault injector is snapshotted separately as InjectorSnap",
		"sink":         "wiring; provably empty at checkpoint instants",
		"trace":        "deadlock-diagnosis ring, only read when an error is being reported",
		"traceIdx":     "deadlock-diagnosis ring index",
		"traceN":       "deadlock-diagnosis ring fill count",
	})

	snapcheck.Assert(t, event{}, []string{"at", "seq", "msg"}, nil)
}

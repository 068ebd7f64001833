package interconnect

import (
	"testing"

	"rowsim/internal/slab"
	"rowsim/internal/snapcheck"
)

// TestSnapshotCoversEveryField is the snapshot-completeness guard for
// the mesh and its in-flight event records.
func TestSnapshotCoversEveryField(t *testing.T) {
	snapcheck.Assert(t, Mesh{}, []string{
		"now", "seq", "cal", "inboxes", "lastAt",
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

	snapcheck.Assert(t, calendar{}, []string{
		"slab", "buckets", // captured as the events in (at, seq) order, queued again by Restore
	}, map[string]string{
		"occ":  "one bit per non-empty bucket, rebuilt as Restore queues the events",
		"busy": "the count of those bits",
	})

	snapcheck.Assert(t, slab.Slab[event]{}, []string{"nodes"}, map[string]string{
		"free": "free list through the slab; Restore starts from an empty slab",
	})

	snapcheck.Assert(t, event{}, []string{"seq", "msg"}, nil)
}

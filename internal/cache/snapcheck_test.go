package cache

import (
	"testing"

	"rowsim/internal/slab"
	"rowsim/internal/snapcheck"
)

// TestSnapshotCoversEveryField is the snapshot-completeness guard for
// the private cache controller and its inner tables.
func TestSnapshotCoversEveryField(t *testing.T) {
	snapcheck.Assert(t, Private{}, []string{
		"l1", "l2",
		"mshrs", "parked", "stalled",
		"waits", // the records of parked and the MSHRs' waiters, captured through those lists
		"events", "now",
		"strides",
		"work",
		"Stats",
	}, map[string]string{
		"coreID":          "construction-time identity",
		"net":             "wiring; the mesh is snapshotted separately",
		"client":          "wiring; the core is snapshotted separately",
		"bankOf":          "pure function of the configuration",
		"lineMask":        "derived from the line size at construction",
		"l1Hit":           "construction-time latency constant",
		"l2Hit":           "construction-time latency constant",
		"mshrLimit":       "construction-time capacity constant",
		"pfDegree":        "construction-time prefetcher constant",
		"pfConfMin":       "construction-time prefetcher constant",
		"noForcedRelease": "model-checker mode flag, never set in checkpointed runs",
		"sink":            "wiring; provably empty at checkpoint instants",
	})

	snapcheck.Assert(t, mshr{}, []string{
		"write", "waiters", "dataArrived", "grant",
		"fromPrivate", "pendingAcks", "sentAt",
	}, nil)

	snapcheck.Assert(t, waiter{}, []string{"tag", "at", "write"}, nil)

	snapcheck.Assert(t, lineTable[mshr]{}, []string{"lines", "vals"}, nil)

	snapcheck.Assert(t, access{}, []string{"line", "waiter"}, nil)

	snapcheck.Assert(t, slab.Slab[access]{}, []string{"nodes"}, map[string]string{
		"free": "free list through the slab; Restore starts from an empty slab",
	})

	snapcheck.Assert(t, event{}, []string{
		"at", "kind", "tag", "line", "wr", "lat",
	}, nil)

	snapcheck.Assert(t, slab.Wheel[event]{}, []string{
		"slab", "buckets", // captured as the events in time order, queued again by Restore
	}, map[string]string{
		"due": "each bucket's cycle, the at of its events; set as Restore queues them",
		"occ": "one bit per non-empty bucket, rebuilt as Restore queues the events",
	})

	snapcheck.Assert(t, slab.Slab[event]{}, []string{"nodes"}, map[string]string{
		"free": "free list through the slab; Restore starts from an empty slab",
	})

	snapcheck.Assert(t, strideEntry{}, []string{
		"pc", "lastAddr", "stride", "conf",
	}, nil)

	snapcheck.Assert(t, stalledExt{}, []string{"msg", "stallAt"}, nil)
}

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
		"mshrs", "parked", "stalled", "pendingFar", "farDeferred",
		"waits", // the records of parked and of the MSHRs' waiters, captured through those lists
		"events", "seq", "now",
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
		"line", "write", "waiters", "dataArrived", "grant",
		"fromPrivate", "pendingAcks", "sentAt",
	}, nil)

	snapcheck.Assert(t, waiter{}, []string{"tag", "at", "write"}, nil)

	snapcheck.Assert(t, mshrSet{}, []string{"lines", "ms"}, nil)

	snapcheck.Assert(t, access{}, []string{"line", "waiter"}, nil)

	snapcheck.Assert(t, slab.Slab[access]{}, []string{"nodes"}, map[string]string{
		"free": "free list through the slab; Restore starts from an empty slab",
	})

	snapcheck.Assert(t, event{}, []string{
		"at", "seq", "kind", "tag", "line", "wr", "lat",
	}, map[string]string{
		"next": "slab link; Restore relinks every event",
	})

	snapcheck.Assert(t, wheel{}, []string{"slab"}, map[string]string{
		"free": "free list through the slab; Restore starts from an empty slab",
		"head": "bucket FIFO links, rebuilt by Restore from the sorted events",
		"tail": "bucket FIFO links, rebuilt by Restore from the sorted events",
		"occ":  "one bit per non-empty bucket, rebuilt with the links",
		"mask": "wheel size - 1, from the hit latencies at construction",
		"n":    "number of queued events, recounted as Restore links them",
		"low":  "lower bound of the queued cycles, re-derived by link as events are queued",
		"late": "set while an overdue event holds the window back; re-derived by link, cleared by Tick",
	})

	snapcheck.Assert(t, strideEntry{}, []string{
		"pc", "lastAddr", "stride", "conf",
	}, nil)

	snapcheck.Assert(t, stalledExt{}, []string{"msg", "stallAt"}, nil)
}

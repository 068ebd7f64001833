package core

import (
	"testing"

	"rowsim/internal/slab"
	"rowsim/internal/snapcheck"
)

// TestSnapshotCoversEveryField is the snapshot-completeness guard:
// adding a field to the core (or any of its ring-entry structs)
// without deciding its checkpoint story fails here, before a
// checkpoint-resumed run can silently diverge.
func TestSnapshotCoversEveryField(t *testing.T) {
	snapcheck.Assert(t, Core{}, []string{
		"fetchIdx", "fetchHoldBy", "fetchFreeAt",
		"now", "nextID",
		"rob", "cold", "robHead", "robTail",
		"lq", "lqHead", "lqTail",
		"sb", "sbHead", "sbTail",
		"aq", "aqHead", "aqTail",
		"rename",
		"readyQ", "storeBlocked", "fenceBlocked",
		"lockWait", "fenceIDs",
		"wheel",
		"bp", "ss", "cp",
		"l1i", "l1iLastLine", "l1iMisses",
		"memPortsUsed", "drainBusy", "work",
		"done", "finishedAt",
		"Stats",
	}, map[string]string{
		"id":          "construction-time identity, fixed by system wiring",
		"cfg":         "construction-time configuration, part of the checkpoint content key",
		"prog":        "pure function of (params, cores, instrs, seed); regenerated, ROB entries rebind by program index",
		"robMask":     "derived from the ROB size at construction",
		"mem":         "attached cache, snapshotted separately as CacheSnap",
		"l1iLineMask": "derived from the line size at construction",
		"sink":        "wiring; provably empty at checkpoint instants (RunCtx checks it earlier in the cycle)",
		"lqF":         "derived from the LQ window; Restore recounts it",
		"sbF":         "derived from the SB window; Restore recounts it",
		"lineShift":   "derived from the line size at construction",
		"wakeBuf":     "scratch for one wake-up pass; holds nothing between calls",
		"lockBuf":     "scratch for one flush; holds nothing between calls",
	})

	snapcheck.Assert(t, robEntry{}, []string{
		"valid", "id", "pi", "in", // in is serialized as the program index (Pi)
		"st", "srcPending", "token",
		"line", "addrReady", "lq", "sb", "aq",
		"mispred", "valueReady",
		"lazy", "predContended", "addrCalcDone",
	}, nil)

	snapcheck.Assert(t, robCold{}, []string{
		"depHead", "depTail", "depNext", // walked into Deps, relinked by Restore
		"waitStoreID", "dispatchAt", "completeAt", "lockIssueAt",
	}, map[string]string{
		"_": "padding",
	})

	snapcheck.Assert(t, sbEntry{}, []string{
		"id", "slot", "line", "addrReady", "committed", "isAtomic",
	}, nil)

	snapcheck.Assert(t, lqEntry{}, []string{
		"id", "slot", "line", "hasLine", "isAtomic", "done",
	}, nil)

	snapcheck.Assert(t, aqEntry{}, []string{
		"id", "slot", "pc", "line", "hasAddr",
		"locked", "contended", "lockAt",
		"predContended", "trainable",
	}, nil)

	// Stats travels whole, the transition counts included, and
	// LockHold as a clone.
	snapcheck.Assert(t, Stats{}, []string{
		"Committed", "Atomics", "Transitions",
		"ContendedAtomics", "PredictedLazy", "Mispredicts", "Branches",
		"LQSquashes", "SSViolations", "LoadForwards",
		"DispatchToIssue", "IssueToLock", "LockToUnlock", "LockHold",
		"OlderUnexecAtEager", "YoungerStartedAtLazy",
	}, nil)

	snapcheck.Assert(t, slab.Wheel[wheelEvent]{}, []string{
		"slab", "buckets", // captured as each bucket's events in order, queued again by Restore
	}, map[string]string{
		"due": "each bucket's cycle, the first past now that maps to it; set as Restore queues the events",
		"occ": "one bit per non-empty bucket, rebuilt as Restore queues the events",
	})

	snapcheck.Assert(t, slab.Slab[wheelEvent]{}, []string{"nodes"}, map[string]string{
		"free": "free list through the slab; Restore starts from an empty slab",
	})

	snapcheck.Assert(t, wheelEvent{}, []string{
		"slot", "id", "token", "kind",
	}, nil)

	snapcheck.Assert(t, depRef{}, []string{"slot", "id"}, nil)
}

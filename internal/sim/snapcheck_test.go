package sim

import (
	"testing"

	"rowsim/internal/snapcheck"
)

// TestSnapshotCoversEveryField is the snapshot-completeness guard for
// the system: a new System field must either be captured by SysSnap
// (via a component snapshot) or be explained here as derived or
// construction-time state.
func TestSnapshotCoversEveryField(t *testing.T) {
	snapcheck.Assert(t, System{}, []string{
		"mesh", "cores", "caches", "dirs", "injector",
		"cycle", "visited",
		"lastCkpt", // restored to the snapshot cycle so the cadence continues
	}, map[string]string{
		"cfg":        "construction-time configuration, part of the checkpoint content key",
		"bankOf":     "pure function of the configuration",
		"sink":       "provably empty at checkpoint instants: RunCtx drains it earlier in the same cold block",
		"warmFilter": "construction-time option, pure function of the workload params",
		"image":      "construction-time option, read once in place of Warm; what it restores is in the cache and directory snapshots",
		"warmDue":    "the warm New deferred: taking a snapshot runs it first, and RestoreSnap drops it because the snapshot overwrites what it fills",
		"progs":      "the programs a deferred warm reads, held only while it is due; the cores hold them too, and the content key covers their generator",
		"crossCheck": "construction-time option",
		"ckptEvery":  "construction-time option (the checkpoint cadence itself)",
		"ckptFn":     "construction-time option (the checkpoint sink itself)",
	})
}

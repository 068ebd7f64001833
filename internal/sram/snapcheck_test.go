package sram

import (
	"testing"

	"rowsim/internal/snapcheck"
)

// TestSnapshotCoversEveryField is the snapshot-completeness guard for
// the SRAM array and the Line record: slot and chunks are captured
// together as the valid lines and their positions, a column per Line
// field but Valid, which every stored line is.
func TestSnapshotCoversEveryField(t *testing.T) {
	snapcheck.Assert(t, Array{}, []string{
		"slot", "chunks", "clock", "hits", "misses",
	}, map[string]string{
		"sets":      "construction-time geometry",
		"ways":      "construction-time geometry",
		"lineShift": "construction-time geometry",
		"blocks":    "how much of chunks is handed out; Restore hands blocks out afresh, and which block a set got is not observable",
	})

	snapcheck.Assert(t, Line{}, []string{
		"Valid", "Tag", "Meta", "LRU",
	}, nil)
}

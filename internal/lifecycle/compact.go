package lifecycle

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// CompactFile rewrites the journal at path to its minimal equivalent:
// the meta record, every sweep record in admission order, and only the
// newest record per run/cell key (latest-wins is exactly the semantics
// Load applies, so replaying the compacted journal reconstructs the
// same state the full journal would — a daemon's queue after a year of
// cell transitions reloads from a file proportional to the number of
// cells, not the number of transitions).
//
// The rewrite is atomic (see WriteAtomic): a crash mid-compaction
// leaves the original journal untouched. The journal must not be open
// for appending — compaction is for quiesced journals (rowserve runs
// it on graceful drain, after the queue has closed).
func CompactFile(path string) error {
	snap, _, err := Load(path)
	if err != nil {
		return fmt.Errorf("lifecycle: compact %s: %w", path, err)
	}
	keys := make([]string, 0, len(snap.Runs))
	for k := range snap.Runs {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	err = WriteAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		recs := append([]Record{snap.Meta}, snap.Sweeps...)
		for _, k := range keys {
			recs = append(recs, snap.Runs[k])
		}
		for i := range recs {
			if err := enc.Encode(recs[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("lifecycle: compact %s: %w", path, err)
	}
	return nil
}

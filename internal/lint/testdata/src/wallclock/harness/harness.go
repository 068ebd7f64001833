// Package harness is a wallclock fixture for the default-deny rule: it
// is neither deterministic core nor allowlisted nor under cmd/, so
// ambient reads are flagged — the analyzer no longer waits for a
// package to be promoted into DeterministicPackages before checking it.
package harness

import (
	"math/rand/v2"
	"sync"
	"time"
)

// Parallel runs independent cells on goroutines: legal, the
// concurrency ban covers only the deterministic core.
func Parallel(cells []func()) {
	var wg sync.WaitGroup
	for _, cell := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cell()
		}()
	}
	wg.Wait()
}

// Elapsed reads the wall clock: flagged (default-deny).
func Elapsed(start time.Time) time.Duration {
	return time.Since(start) // want: wallclock
}

// Pick draws from the global math/rand/v2 source: flagged.
func Pick(n int) int {
	return rand.IntN(n) // want: wallclock
}

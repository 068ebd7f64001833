// Package core is a wallclock fixture: deterministic-core code must
// not read wall clocks, the global math/rand source, or the host
// environment, and must not hand ordering to the host scheduler.
package core

import (
	"math/rand"
	"os"
	"sync" // want: wallclock
	"time"
)

// mu would guard state shared between goroutines: the import is
// flagged.
var mu sync.Mutex

// Fanout computes on a goroutine and collects through a channel: the
// channel type, the go statement, the send and the receive are flagged.
func Fanout(n int) int {
	ch := make(chan int) // want: wallclock
	go func() {          // want: wallclock
		ch <- n // want: wallclock
	}()
	return <-ch // want: wallclock
}

// Drain closes a channel and polls it with select: both flagged, along
// with the parameter's channel type and the receive.
func Drain(ch chan int) { // want: wallclock
	close(ch) // want: wallclock
	select {  // want: wallclock
	case <-ch: // want: wallclock
	default:
	}
}

// Stamp reads the wall clock: flagged.
func Stamp() int64 {
	return time.Now().UnixNano() // want: wallclock
}

// Jitter draws from the global math/rand source: flagged.
func Jitter() int {
	return rand.Intn(8) // want: wallclock
}

// Configured reads the host environment: flagged.
func Configured() bool {
	return os.Getenv("ROWSIM_MODE") != "" // want: wallclock
}

// SeededDelay uses an explicitly seeded local source — the legal
// pattern — plus deterministic helpers from the banned packages.
func SeededDelay(seed int64, cycles uint64) time.Duration {
	r := rand.New(rand.NewSource(seed))
	return time.Duration(cycles+uint64(r.Intn(4))) * time.Nanosecond
}

// DebugDump is justified at the one legal call site: suppressed.
func DebugDump() string {
	//rowlint:ignore wallclock debug-only banner; never reaches simulated state
	return os.Getenv("ROWSIM_BANNER")
}

// Tally ranges over a map: maporder's finding, not wallclock's, so the
// package trips two analyzers (the CLI's -only test selects one).
func Tally(m map[string]int) int {
	n := 0
	for _, v := range m { // want: maporder
		n += v
	}
	return n
}

package core

import (
	"math/bits"

	"rowsim/internal/slab"
)

const wheelSize = 16 // > max internal latency

// wheelEvent is a scheduled completion inside the core.
type wheelEvent struct {
	slot  uint32
	id    uint64
	token uint16
	kind  uint8
}

// execWheel holds the core's scheduled completions: bucket b is the
// FIFO, in scheduling order, of the events due at the cycles that are b
// modulo wheelSize, and the buckets share one slab. Every queued event
// was scheduled in the last wheelSize cycles, so the slab holds at most
// what the core schedules in that many, and New reserves what runs
// schedule.
type execWheel struct {
	slab    slab.Slab[wheelEvent]
	buckets [wheelSize]slab.List
	occ     uint16 // bit b is set while bucket b holds an event
}

// push queues ev behind bucket b's events.
func (w *execWheel) push(b uint64, ev wheelEvent) {
	w.slab.Push(&w.buckets[b], ev)
	w.occ |= 1 << b
}

// take empties bucket b and returns its events as a list for Pop.
func (w *execWheel) take(b uint64) slab.List {
	l := w.buckets[b]
	w.buckets[b] = slab.List{}
	w.occ &^= 1 << b
	return l
}

// reset empties the wheel, keeping its storage.
func (w *execWheel) reset() {
	w.slab.Reset()
	w.buckets = [wheelSize]slab.List{}
	w.occ = 0
}

// ahead returns how many buckets past the one of cycle from the first
// non-empty bucket lies (0 for from's own); ok is false when the wheel
// is empty.
func (w *execWheel) ahead(from uint64) (d uint64, ok bool) {
	if w.occ == 0 {
		return 0, false
	}
	r := bits.RotateLeft16(w.occ, -int(from%wheelSize))
	return uint64(bits.TrailingZeros16(r)), true
}

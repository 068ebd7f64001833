package slab

import "math/bits"

// WheelSize is a Wheel's bucket count. Every delay the core or a
// private cache schedules is shorter: the core's internal latencies
// and the caches' hit latencies.
const WheelSize = 16

// Wheel is a timing wheel over one Slab: the bucket of cycle at is at
// modulo WheelSize, and it holds the values due at one cycle as a FIFO
// in push order. The caller pushes only into [now, now+WheelSize) and
// takes every cycle it passes that has values, so each bucket holds one
// cycle and the buckets, read circularly from now's, are in time order.
// Push refuses a value whose bucket holds another cycle: only a clock
// that passed a queued value or ran backwards makes one. The slab holds
// at most what the caller schedules in WheelSize cycles.
type Wheel[T any] struct {
	slab    Slab[T]
	buckets [WheelSize]List
	due     [WheelSize]uint64 // the cycle bucket b's values are due at, while it holds any
	occ     uint16            // bit b is set while bucket b holds a value
}

// Reserve makes room for n queued values in all.
func (w *Wheel[T]) Reserve(n int) { w.slab.Reserve(n) }

// Push queues v behind the values due at cycle at. It reports false,
// queueing nothing, when at's bucket holds values due at another cycle.
func (w *Wheel[T]) Push(at uint64, v T) bool {
	b := at % WheelSize
	if w.occ&(1<<b) == 0 {
		w.due[b] = at
		w.occ |= 1 << b
	} else if w.due[b] != at {
		return false
	}
	w.slab.Push(&w.buckets[b], v)
	return true
}

// Take empties at's bucket and returns its values as a list for Pop,
// if they are due by at; otherwise the list is empty.
func (w *Wheel[T]) Take(at uint64) List {
	b := at % WheelSize
	if w.occ&(1<<b) == 0 || w.due[b] > at {
		return List{}
	}
	l := w.buckets[b]
	w.buckets[b] = List{}
	w.occ &^= 1 << b
	return l
}

// Pop removes the first value of l, a list from Take, and returns it.
// The record is free again, so the value is a copy.
func (w *Wheel[T]) Pop(l *List) T { return w.slab.Pop(l) }

// Bucket returns a copy of the values in at's bucket in push order,
// whatever cycle they are due at; nil when it is empty.
func (w *Wheel[T]) Bucket(at uint64) []T { return w.slab.Values(w.buckets[at%WheelSize]) }

// Ahead returns how many buckets past the one of cycle from the first
// non-empty bucket lies (0 for from's own); ok is false when the wheel
// is empty.
func (w *Wheel[T]) Ahead(from uint64) (d uint64, ok bool) {
	if w.occ == 0 {
		return 0, false
	}
	r := bits.RotateLeft16(w.occ, -int(from%WheelSize))
	return uint64(bits.TrailingZeros16(r)), true
}

// Empty reports whether nothing is queued.
func (w *Wheel[T]) Empty() bool { return w.occ == 0 }

// Reset empties the wheel, keeping its storage.
func (w *Wheel[T]) Reset() {
	w.slab.Reset()
	w.buckets = [WheelSize]List{}
	w.occ = 0
}

package cache

import "math/bits"

// event is one pending pipeline step: a lookup that will respond, or a
// miss on its way to the MSHR file. The record is 48 bytes, links
// included.
type event struct {
	at   uint64
	seq  uint64
	tag  uint64
	line uint64
	lat  uint64 // for evRespond: latency to report
	next int32  // slab link: the bucket's next event, or the next free record
	kind uint8  // evRespond | evMiss
	wr   bool
}

const (
	evRespond uint8 = iota
	evMiss
)

// wheel is the pipeline's event queue: a timing wheel, possible because
// every delay the controller schedules is one of a few small constants.
// Bucket at&mask holds the events due at cycle at, as a FIFO threaded
// through one slab of records, so a push is an append and a pop an
// index step.
//
// Why a FIFO per bucket is (at, seq) order: the wheel is wider than the
// longest delay, so an event is pushed with now <= at < now+size. Take
// A pushed before B into the same bucket, at clocks nowA <= nowB. Were
// B.at < A.at, then B.at <= A.at-size < nowA <= nowB, but B.at >= nowB.
// So cycles never decrease along a bucket, and equal cycles are in push
// order, which is seq order. link checks both premises.
//
// Which bucket is earliest: while every queued event lies in
// [low, low+size) each bucket holds one cycle and the buckets, read
// circularly from low, are in time order, so the occupancy bits give the
// earliest in O(1). link slides low forward as the clock advances. Only
// a caller that lets the clock pass a queued event without ticking (no
// run loop does; tests do) can make a push that does not fit behind the
// overdue event; the wheel is then late, and the earliest event is found
// by comparing bucket heads until the next Tick has drained what is due.
type wheel struct {
	slab []event // every record, queued or free; grows by append, never shrinks
	free int32   // first free record (through next), -1 when none
	head []int32 // per bucket: first queued record, -1 when empty
	tail []int32 // per bucket: last queued record (meaningful while head >= 0)
	occ  []uint64
	mask uint64 // len(head) - 1
	n    int    // queued events

	low  uint64
	late bool
}

// init sizes the wheel to the next power of two above the longest delay
// it will be asked to hold, and its slab to two events a bucket, which
// no rowperf workload passes.
func (w *wheel) init(maxDelay int) {
	size := 1
	for size <= maxDelay {
		size <<= 1
	}
	w.slab = make([]event, 0, 2*size)
	w.head = make([]int32, size)
	w.tail = make([]int32, size)
	w.occ = make([]uint64, (size+63)/64)
	w.mask = uint64(size - 1)
	w.reset()
}

// reset empties the wheel, keeping its storage.
func (w *wheel) reset() {
	w.slab = w.slab[:0]
	w.free = -1
	for b := range w.head {
		w.head[b] = -1
	}
	clear(w.occ)
	w.n, w.low, w.late = 0, 0, false
}

// put stores e in a free record and returns its index; the event is not
// queued until link.
func (w *wheel) put(e event) int32 {
	if i := w.free; i >= 0 {
		w.free = w.slab[i].next
		w.slab[i] = e
		return i
	}
	w.slab = append(w.slab, e)
	return int32(len(w.slab) - 1)
}

// release returns an unlinked record to the free list.
func (w *wheel) release(i int32) {
	w.slab[i].next = w.free
	w.free = i
}

// link queues record i behind its bucket's events. It reports false,
// queueing nothing, when the event breaks a premise of the ordering
// argument: it lies a whole wheel or more ahead of now, or earlier than
// its bucket's tail (the clock moved backwards).
func (w *wheel) link(i int32, now uint64) bool {
	e := &w.slab[i]
	b := e.at & w.mask
	if e.at > now+w.mask || (w.head[b] >= 0 && w.slab[w.tail[b]].at > e.at) {
		return false
	}
	if !w.late && e.at-w.low > w.mask {
		// Slide the window up to the earliest thing that is or can
		// still be queued. If e does not fit even then, an overdue event
		// is holding the window back.
		low := min(now, e.at)
		if w.n > 0 {
			if _, at := w.earliest(); at < low {
				low = at
			}
		}
		w.low = low
		w.late = e.at-low > w.mask
	}
	e.next = -1
	if w.head[b] < 0 {
		w.head[b] = i
		w.occ[b>>6] |= 1 << (b & 63)
	} else {
		w.slab[w.tail[b]].next = i
	}
	w.tail[b] = i
	w.n++
	return true
}

// unlink takes the first record off bucket b, which must not be empty.
func (w *wheel) unlink(b uint64) int32 {
	i := w.head[b]
	next := w.slab[i].next
	w.head[b] = next
	if next < 0 {
		w.occ[b>>6] &^= 1 << (b & 63)
	}
	w.n--
	return i
}

// earliest returns the bucket whose head is the earliest queued event
// — the least (at, seq) — and that event's cycle. The wheel must not
// be empty.
func (w *wheel) earliest() (b, at uint64) {
	if !w.late {
		at = w.low + w.ahead(w.low)
		return at & w.mask, at
	}
	at = ^uint64(0)
	for wi, m := range w.occ {
		for ; m != 0; m &= m - 1 {
			c := uint64(wi<<6 + bits.TrailingZeros64(m))
			if t := w.slab[w.head[c]].at; t < at {
				b, at = c, t
			}
		}
	}
	return b, at
}

// ahead returns how many buckets past from's own (0 <= d < size,
// circularly) the first non-empty bucket lies. The wheel must not be
// empty.
func (w *wheel) ahead(from uint64) uint64 {
	b := from & w.mask
	wi, sh := b>>6, b&63
	if m := w.occ[wi] >> sh; m != 0 {
		return uint64(bits.TrailingZeros64(m))
	}
	words := uint64(len(w.occ)) // a power of two, like the wheel
	for i := uint64(1); ; i++ {
		if m := w.occ[(wi+i)&(words-1)]; m != 0 {
			return (i<<6 - sh + uint64(bits.TrailingZeros64(m))) & w.mask
		}
	}
}

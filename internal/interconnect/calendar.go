package interconnect

import (
	"math/bits"

	"rowsim/internal/coherence"
	"rowsim/internal/slab"
)

// event is one in-flight message. Its arrival cycle is not stored: the
// calendar bucket that holds it names the cycle.
type event struct {
	seq uint64 // send order, unique: the tie-breaker within a cycle and the name TakeSeq takes
	msg coherence.Msg
}

// calendarSize is the calendar's starting bucket count. The longest
// delay a fault-free run under Table I schedules is 241 cycles: L3 35,
// DRAM 160, and 4 + 14 hops × 3 across the 64-node mesh.
const calendarSize = 256

// maxDelay is the furthest ahead of the clock the mesh queues a
// message. No configuration comes near it (whoever waits on a message
// due 2^20 cycles ahead trips the 2^19-cycle watchdog first); it bounds
// the calendar at 8 MB of buckets, whatever a fault spec's jitter or a
// corrupt checkpoint asks for.
const maxDelay = 1 << 20

// calendar is the mesh's timing wheel. With base the cycle of the last
// Tick, every queued message is due in (base, base+size], size being
// the bucket count, a power of two: bucket at&(size-1) holds the
// messages due at cycle at as a FIFO in send order, and the buckets
// read circularly from base+1's are in time order. So the calendar
// delivers in exactly the (at, seq) order of a heap, and finding the
// next delivery is a scan of the occupancy bitmap. A push due past the
// horizon doubles the wheel until it fits; each old bucket holds one
// cycle, so it moves whole to that cycle's new bucket.
type calendar struct {
	slab    slab.Slab[event]
	buckets []slab.List
	occ     []uint64 // bit b of word b/64 is set while buckets[b] holds a message
	busy    int      // buckets holding a message
}

func newCalendar(room int) calendar {
	c := calendar{
		buckets: make([]slab.List, calendarSize),
		occ:     make([]uint64, calendarSize/64),
	}
	c.slab.Reserve(room)
	return c
}

func (c *calendar) mask() uint64 { return uint64(len(c.buckets) - 1) }

// push queues e behind the messages due at cycle at, which must be in
// (base, base+maxDelay].
func (c *calendar) push(base, at uint64, e event) {
	if at-base > uint64(len(c.buckets)) {
		c.grow(base, at-base)
	}
	b := at & c.mask()
	if c.buckets[b].Empty() {
		c.occ[b>>6] |= 1 << (b & 63)
		c.busy++
	}
	c.slab.Push(&c.buckets[b], e)
}

// grow doubles the wheel until a delay of d cycles from base fits.
func (c *calendar) grow(base, d uint64) {
	size := uint64(len(c.buckets))
	for size < d {
		size *= 2
	}
	buckets, occ := make([]slab.List, size), make([]uint64, size/64)
	for at, ok := c.next(base); ok; at, ok = c.nextAfter(base, at) {
		b := at & (size - 1)
		buckets[b] = c.buckets[at&c.mask()]
		occ[b>>6] |= 1 << (b & 63)
	}
	c.buckets, c.occ = buckets, occ
}

// ahead returns how many buckets past the one of cycle from the first
// occupied bucket lies, reading circularly; ok is false when none is.
func (c *calendar) ahead(from uint64) (d uint64, ok bool) {
	if c.busy == 0 {
		return 0, false
	}
	mask := c.mask()
	b := from & mask
	w := b >> 6
	if x := c.occ[w] >> (b & 63); x != 0 {
		return uint64(bits.TrailingZeros64(x)), true
	}
	nw := uint64(len(c.occ))
	for i := uint64(1); ; i++ {
		j := (w + i) % nw
		x := c.occ[j]
		if i == nw {
			x &= 1<<(b&63) - 1 // back at from's word: only the buckets before from's
		}
		if x != 0 {
			return (j<<6 + uint64(bits.TrailingZeros64(x)) - b) & mask, true
		}
	}
}

// next returns the earliest cycle a message is due at.
func (c *calendar) next(base uint64) (at uint64, ok bool) {
	d, ok := c.ahead(base + 1)
	return base + 1 + d, ok
}

// nextAfter returns the first cycle after at, itself due at some cycle,
// that a message is due at; ok is false when at is the last.
func (c *calendar) nextAfter(base, at uint64) (uint64, bool) {
	if at-base == uint64(len(c.buckets)) {
		return 0, false
	}
	d, ok := c.ahead(at + 1)
	if !ok || at+1+d-base > uint64(len(c.buckets)) {
		return 0, false // wrapped round to a bucket before at's
	}
	return at + 1 + d, true
}

// take empties at's bucket and returns its messages for pop.
func (c *calendar) take(at uint64) slab.List {
	b := at & c.mask()
	l := c.buckets[b]
	if !l.Empty() {
		c.buckets[b] = slab.List{}
		c.occ[b>>6] &^= 1 << (b & 63)
		c.busy--
	}
	return l
}

// each calls fn for every queued message in (at, seq) order.
func (c *calendar) each(base uint64, fn func(at uint64, e *event)) {
	for at, ok := c.next(base); ok; at, ok = c.nextAfter(base, at) {
		for r := c.buckets[at&c.mask()].Front(); r != 0; r = c.slab.Next(r) {
			fn(at, c.slab.At(r))
		}
	}
}

// remove takes the message with send number seq, which must be due at
// cycle at, out of at's bucket, keeping the others in order.
func (c *calendar) remove(at, seq uint64) (e event) {
	var keep slab.List
	for l := c.take(at); !l.Empty(); {
		if x := c.slab.Pop(&l); x.seq == seq {
			e = x
		} else {
			c.slab.Push(&keep, x)
		}
	}
	if !keep.Empty() {
		b := at & c.mask()
		c.buckets[b] = keep
		c.occ[b>>6] |= 1 << (b & 63)
		c.busy++
	}
	return e
}

// reset empties the calendar, keeping its storage and size.
func (c *calendar) reset() {
	c.slab.Reset()
	clear(c.buckets)
	clear(c.occ)
	c.busy = 0
}

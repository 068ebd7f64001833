package core

import "rowsim/internal/trace"

// This file is the core's side of the event-driven scheduler contract
// (internal/sim): NextEventAt reports the earliest future cycle at
// which Tick could do observable work absent external input, and the
// work counter lets the scheduler's cross-check replay a skipped Tick
// and assert it idle.

// never is the NextEventAt value meaning "no self-driven work pending".
const never = ^uint64(0)

// SetNow advances the core clock without doing any work. The run loop
// uses it to give a core it skipped the clock phasing of one ticked
// every cycle: cache completions and coherence callbacks delivered at
// cycle T observe a core clock of T-1, because cores tick after caches
// within a cycle.
func (c *Core) SetNow(cycle uint64) { c.now = cycle }

// WorkDone returns the monotone observable-work counter. Every
// externally visible action a Tick can take increments it, so a
// replayed Tick on a core the event scheduler chose to skip must
// leave it unchanged.
func (c *Core) WorkDone() uint64 { return c.work }

// NextEventAt returns the earliest cycle strictly after now at which
// the core could do observable work without further external input
// (cache responses and coherence callbacks arrive via the mesh or the
// private cache and force a visit on their own); ^uint64(0) means the
// core is quiescent until something external happens. The contract is
// one-sided: returning too early wastes a visit, returning too late
// would diverge from ticking every cycle — which is exactly what the
// cross-check mode verifies.
func (c *Core) NextEventAt(now uint64) uint64 {
	if c.done {
		return never
	}
	next := now + 1
	if c.activeNow(next) {
		return next
	}
	at := never
	// A pending wheel event for cycle Y sits in bucket Y%WheelSize and
	// was scheduled fewer than WheelSize cycles before Y, so from any
	// later now the bucket's next alias time is Y itself: timed events
	// are neither fired early nor missed. Buckets holding only stale
	// (token-mismatched) events wake the core spuriously once; the
	// visit clears them.
	if d, ok := c.wheel.Ahead(next); ok {
		at = next + d
	}
	// Front end blocked only by the redirect / i-miss bubble.
	if c.fetchFreeAt > next && c.dispatchReady() && c.fetchFreeAt < at {
		at = c.fetchFreeAt
	}
	return at
}

// activeNow reports whether a Tick at cycle next would do observable
// work given the current architectural state. The clauses mirror the
// first action of each pipeline stage; wait lists whose entries are
// woken explicitly inside other actions (storeBlocked, fenceBlocked,
// lockWait) need no clause, because the waking action itself counts
// as work and triggers a wake recomputation.
func (c *Core) activeNow(next uint64) bool {
	if len(c.readyQ) != 0 {
		return true // issue acts (or parks entries behind a fence)
	}
	if c.robHead < c.robTail {
		e := c.entry(c.robHead)
		switch {
		case e.st == sCompleted:
			// commit retires the head — unless it is an atomic whose
			// store_unlock has not reached the SB head yet (that drain
			// is covered by the SB clause below).
			if e.in.Kind != trace.Atomic || e.sb < 0 || e.sb == c.sbHead {
				return true
			}
		case e.in.Kind == trace.Fence && e.srcPending == 0:
			// A fence completes at the head once every older store has
			// drained; the last such drain happens after commit within
			// its tick, so the completion lands on the next one.
			if c.sbHead == c.sbTail || c.sb[c.sbHead%int64(len(c.sb))].id > e.id {
				return true
			}
		}
	}
	if c.sbHead != c.sbTail && !c.drainBusy {
		h := &c.sb[c.sbHead%int64(len(c.sb))]
		if h.committed && h.addrReady {
			return true // drainSB drains the head or goes busy fetching permission
		}
	}
	if e, _ := c.lazyHead(); e != nil {
		return true // checkLazy issues it (ports reset every tick)
	}
	if e, _ := c.orderHead(); e != nil {
		return true // checkOrderWait re-issues the lock
	}
	if next >= c.fetchFreeAt && c.dispatchReady() {
		return true
	}
	if c.fetchIdx >= len(c.prog) && c.robHead == c.robTail && c.sbHead == c.sbTail {
		return true // checkDone latches completion
	}
	return false
}

// dispatchReady reports whether the front end could make observable
// progress on the next fetch instruction, ignoring the fetchFreeAt
// time gate (the caller accounts for it). The i-cache probe runs
// before the structural-hazard checks in dispatch and mutates fetch
// state even when dispatch then stalls, so a new fetch line counts as
// progress on its own.
func (c *Core) dispatchReady() bool {
	if c.fetchHoldBy != 0 || c.fetchIdx >= len(c.prog) || c.robFull() {
		return false
	}
	in := &c.prog[c.fetchIdx]
	return in.PC&c.l1iLineMask != c.l1iLastLine || !c.noRoom(in)
}

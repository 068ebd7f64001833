package core

import (
	"errors"
	"fmt"

	"rowsim/internal/cache"
)

// The locking atomic's state machine. Its state is its ROB entry's st
// and its AQ entry's locked bit. The functions in this file take the
// transitions below, counting each in Stats.Transitions under the name
// in the last column, and alone change the locked bit; a lazy atomic
// leaves sWaitLazy for tryLock at the LQ head (checkLazy).
//
//	state               event                                next                   Transition
//	sIssued (AGU)       address known, older plain SB store  eager, value forwarded Forward
//	sIssued (AGU)       address known, lazy, not yet oldest  sWaitLazy              -
//	sIssued             tryLock, older atomic on its line    sWaitLock              LockWaitAtIssue
//	sIssued             tryLock, eager / lazy                sIssued, GetX sent     EagerIssue / LazyIssue
//	sIssued             fill, older atomic on its line       sWaitLock              LockWaitAtFill
//	sIssued             fill, an older atomic unlocked       sWaitOrder             OrderWait
//	sIssued             fill                                 locked, RMW op         Lock
//	sWaitLock           the older same-line atomic unlocks   tryLock                WakeLockWait
//	sWaitOrder          every older atomic locked            tryLock                WakeOrderWait
//	locked, eager       forced release                       unlocked, retry        ForcedReleaseEager
//	locked, lazy        forced release                       unlocked, sWaitLazy    ForcedReleaseLazy
//	locked, unlock due  forced release (see ForceRelease)    unchanged              Refusal
//	locked              squash                               AQ entry freed         SquashLocked
//	locked, committed   its store_unlock drains              AQ entry freed         Unlock
//
// Lock order: an atomic locks only when every older AQ entry is locked,
// so has its address, and none is on its line; a locked entry's line
// never changes, and a flush of an older entry takes the younger with
// it. So no locked entry has an older AQ entry on its line: an older
// atomic never finds a younger one's lock to break, and the oldest
// atomic can always lock and commit. CheckInvariants asserts it.

// Transition names one counted edge of the table above.
type Transition uint8

const (
	EagerIssue Transition = iota
	LazyIssue
	LockWaitAtIssue
	LockWaitAtFill
	OrderWait
	Lock
	Forward
	ForcedReleaseEager
	ForcedReleaseLazy
	Refusal
	SquashLocked
	Unlock
	WakeLockWait
	WakeOrderWait
	NumTransitions
)

var transitionNames = [NumTransitions]string{
	"eager-issue", "lazy-issue", "lock-wait-at-issue", "lock-wait-at-fill",
	"order-wait", "lock", "forward", "forced-release-eager", "forced-release-lazy",
	"refusal", "squash-locked", "unlock", "wake-lock-wait", "wake-order-wait",
}

func (t Transition) String() string { return transitionNames[t] }

func (c *Core) count(t Transition) { c.Stats.Transitions[t]++ }

// atomicAfterAGU is the atomic's address-calculation pass. For
// predicted-contended atomics under RoW this is the
// only-calculate-address issue: it opens the ready window (the AQ now
// knows the address) and searches the SB for a forwarding match that
// would flip the atomic back to eager (atomic locality, Section IV-E).
func (c *Core) atomicAfterAGU(e *robEntry, slot uint32) {
	e.line = c.mem.Line(e.in.Addr)
	e.addrReady = true
	e.addrCalcDone = true
	if le := &c.lq[e.lq%int64(len(c.lq))]; le.id == e.id {
		c.lqSetLine(le, e.line)
	}
	if se := &c.sb[e.sb%int64(len(c.sb))]; se.id == e.id {
		c.sbResolve(se, e.line)
	}
	if e.aq >= 0 {
		a := &c.aq[e.aq%int64(len(c.aq))]
		a.line = e.line
		a.hasAddr = true
	}

	if c.cfg.ForwardAtomics && !c.cfg.Core.FencedAtomics && c.sbMatch(e.id, e.line, true) >= 0 {
		// An older plain store to the line forwards its data, and the
		// atomic flips to eager to lock the line while the store still
		// owns it; dependents proceed once the forwarded value arrives.
		c.count(Forward)
		e.lazy = false
		c.schedule(c.cfg.Core.ForwardLat+c.cfg.Core.IntALULatency, evAtomicFwdValue, slot, e.id, e.token)
	}
	if e.lazy && !c.lazyReady(e) {
		e.st = sWaitLazy
		return
	}
	c.tryLock(e, slot)
}

// tryLock issues the atomic's load_lock: request the line with
// exclusive permission. A younger atomic waits for an older same-line
// one.
func (c *Core) tryLock(e *robEntry, slot uint32) {
	if c.olderSameLineAtomic(e.line, e.id) {
		c.waitLock(e, slot, LockWaitAtIssue)
		return
	}
	e.st = sIssued
	cold := &c.cold[slot]
	cold.lockIssueAt = c.now
	c.Stats.DispatchToIssue.Observe(float64(c.now - cold.dispatchAt))
	switch {
	case e.lazy:
		c.count(LazyIssue)
		c.Stats.YoungerStartedAtLazy.Observe(float64(c.countYoungerStarted(e.id)))
	default:
		c.count(EagerIssue)
		c.Stats.OlderUnexecAtEager.Observe(float64(c.countOlderUnexecuted(e.id)))
	}
	c.mem.Access(c.makeTag(slot, e.id), e.in.Addr, true)
}

// atomicLineArrived locks the line (for locking atomics) and starts
// the RMW ALU operation. The RW+Dir contention detector fires here:
// a fill served by a remote private cache whose latency exceeds the
// threshold marks the atomic contended.
func (c *Core) atomicLineArrived(e *robEntry, slot uint32, info cache.RespInfo) {
	cold := &c.cold[slot]
	if e.in.LocksLine() {
		if c.olderSameLineAtomic(e.line, e.id) {
			// An older same-line atomic resolved its address between
			// our request and the response: wait for its unlock.
			c.waitLock(e, slot, LockWaitAtFill)
			return
		}
		if a := c.oldestUnlocked(); a != nil && a.id < e.id {
			// Locks are acquired in program order per core (lock
			// order, above), which also keeps lock-hold times from
			// inflating to other atomics' queueing delays. The line
			// stays cached unlocked: a contending core may steal it
			// before our turn comes, and then the lock request replays.
			e.st = sWaitOrder
			c.count(OrderWait)
			return
		}
		a := &c.aq[e.aq%int64(len(c.aq))]
		a.locked, a.lockAt = true, c.now
		c.count(Lock)
		c.Stats.IssueToLock.Observe(float64(c.now - cold.lockIssueAt))
		// The request's issue cycle feeds the 14-bit
		// subtractor/comparator (Section IV-C hardware).
		if c.detectDir() && info.FromPrivate && !info.Hit &&
			c.wrappedLatency(cold.lockIssueAt, c.now) > uint64(c.cfg.RoW.LatencyThreshold) {
			a.contended = true
		}
		if le := &c.lq[e.lq%int64(len(c.lq))]; le.id == e.id {
			c.lqSetDone(le)
		}
	}
	e.token++
	c.schedule(c.cfg.Core.IntALULatency, evAtomicOp, slot, e.id, e.token)
}

// waitLock parks the atomic behind an older same-line one, until
// wakeLockWaiters retries it.
func (c *Core) waitLock(e *robEntry, slot uint32, t Transition) {
	e.st = sWaitLock
	c.lockWait = append(c.lockWait, depRef{slot: slot, id: e.id})
	c.count(t)
}

// releaseLock drops the lock AQ entry a holds, counting t, and reports
// whether it held one.
func (c *Core) releaseLock(a *aqEntry, t Transition) bool {
	if !a.locked {
		return false
	}
	a.locked = false
	c.count(t)
	return true
}

// oldestUnlocked returns the oldest AQ entry that holds no lock, or nil.
func (c *Core) oldestUnlocked() *aqEntry {
	for p := c.aqHead; p < c.aqTail; p++ {
		if a := &c.aq[p%int64(len(c.aq))]; !a.locked {
			return a
		}
	}
	return nil
}

// olderSameLineAtomic reports whether an older in-flight atomic with a
// resolved address targets the same line (the younger must wait).
func (c *Core) olderSameLineAtomic(line uint64, id uint64) bool {
	for p := c.aqHead; p < c.aqTail; p++ {
		a := &c.aq[p%int64(len(c.aq))]
		if a.id < id && a.hasAddr && a.line == line {
			return true
		}
	}
	return false
}

// ForceRelease implements cache.Client: the progress guarantee asks to
// break the lock on line, whose external request has stalled too long.
// It is refused when the unlock is imminent: the atomic has committed
// (its ROB entry is gone and its store_unlock drains in order) or has
// completed at the ROB head with its SB entry at the SB head. Otherwise
// the lock goes and the atomic replays its acquisition.
func (c *Core) ForceRelease(line uint64) bool {
	for p := c.aqHead; p < c.aqTail; p++ {
		a := &c.aq[p%int64(len(c.aq))]
		if !a.locked || a.line != line {
			continue
		}
		e := c.entryBySlot(a.slot, a.id)
		if e == nil || e.st == sCompleted && e.sb == c.sbHead && c.posOfSlot(a.slot) == c.robHead {
			c.count(Refusal)
			return false
		}
		a.contended = true // a stalled external request is contention
		e.token++          // cancel an in-flight op completion
		if e.lazy {
			c.releaseLock(a, ForcedReleaseLazy)
			e.st = sWaitLazy
			return true
		}
		// The retry is delayed a couple of cycles so the released line
		// leaves the cache first (the stalled external request is served
		// right after this call returns); the replayed GetX then queues
		// at the directory behind the winner.
		c.releaseLock(a, ForcedReleaseEager)
		e.st = sIssued
		c.schedule(2, evAtomicRetry, a.slot, a.id, e.token)
		return true
	}
	return false
}

// squashAQ frees the AQ entry at position aq, the AQ's tail, for a
// flush, and appends the line it held locked to released, which
// flushFrom hands to the cache once the rollback is done.
func (c *Core) squashAQ(aq int64, released []uint64) []uint64 {
	a := &c.aq[aq%int64(len(c.aq))]
	if c.releaseLock(a, SquashLocked) {
		released = append(released, a.line)
	}
	*a = aqEntry{}
	c.aqTail--
	return released
}

// unlockAtomic clears the AQ head for a draining store_unlock, trains
// the contention predictor and releases any stalled external request.
func (c *Core) unlockAtomic(h *sbEntry) {
	a := &c.aq[c.aqHead%int64(len(c.aq))]
	if c.aqHead == c.aqTail || a.id != h.id {
		return // a non-locking RMW: no AQ entry
	}
	if a.contended {
		c.Stats.ContendedAtomics++
	}
	if a.trainable && c.cp != nil {
		c.cp.Train(a.pc, a.predContended, a.contended)
	}
	if c.cfg.Core.FencedAtomics {
		c.removeFence(a.id)
		c.wakeFenceBlocked()
	}
	line, lockAt := a.line, a.lockAt
	locked := c.releaseLock(a, Unlock)
	*a = aqEntry{}
	c.aqHead++
	if locked {
		c.Stats.LockToUnlock.Observe(float64(c.now - lockAt))
		c.Stats.LockHold.Observe(float64(c.now - lockAt))
		c.mem.LockReleased(line)
		c.wakeLockWaiters(line)
	}
}

// wakeLockWaiters retries the lock acquisitions waiting on line.
func (c *Core) wakeLockWaiters(line uint64) {
	if len(c.lockWait) == 0 {
		return
	}
	// Rebuild the list before re-issuing: tryLock may push a waiter
	// right back onto it.
	wake := c.wakeBuf[:0]
	c.wakeBuf = nil // a re-entrant wake-up grows its own
	kept := c.lockWait[:0]
	for _, ref := range c.lockWait {
		e := c.entryBySlot(ref.slot, ref.id)
		if e == nil || e.st != sWaitLock {
			continue
		}
		if e.line == line {
			wake = append(wake, ref)
		} else {
			kept = append(kept, ref)
		}
	}
	c.lockWait = kept
	for _, ref := range wake {
		e := c.entryBySlot(ref.slot, ref.id)
		if e == nil || e.st != sWaitLock {
			continue
		}
		c.count(WakeLockWait)
		e.st = sIssued
		c.tryLock(e, ref.slot)
	}
	c.wakeBuf = wake
}

// checkOrderWait retries the lock acquisition that per-core lock
// ordering deferred, once every older atomic has locked: only the
// oldest unlocked AQ entry has no older unlocked atomic.
func (c *Core) checkOrderWait() {
	if e, slot := c.orderHead(); e != nil {
		c.work++
		c.count(WakeOrderWait)
		e.st = sIssued
		c.tryLock(e, slot)
	}
}

// orderHead returns the oldest unlocked AQ entry's instruction when it
// waits in sWaitOrder, or nil.
func (c *Core) orderHead() (*robEntry, uint32) {
	if a := c.oldestUnlocked(); a != nil {
		if e := c.entryBySlot(a.slot, a.id); e != nil && e.st == sWaitOrder {
			return e, a.slot
		}
	}
	return nil, 0
}

// CheckInvariants returns an error naming the first check the core
// fails, or nil: the line filters equal a recount of the queues
// (filter.go), and no locked AQ entry has an older entry on its line
// (lock order, above). The run loop's cross-check asks after every
// core tick it makes.
func (c *Core) CheckInvariants() error {
	if lq, sb := c.countFilters(); lq != c.lqF || sb != c.sbF {
		return errors.New("line filters disagree with its queues")
	}
	for p := c.aqHead; p < c.aqTail; p++ {
		if a := &c.aq[p%int64(len(c.aq))]; a.locked && c.olderSameLineAtomic(a.line, a.id) {
			return fmt.Errorf("breaks lock order: locked atomic %d has an older atomic on line %#x", a.id, a.line)
		}
	}
	return nil
}

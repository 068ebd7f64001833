package core

import (
	"fmt"

	"rowsim/internal/cache"
	"rowsim/internal/config"
	"rowsim/internal/trace"
)

// loadAfterAGU runs when a load's address generation finishes: record
// the line in the LQ, honour store-set dependencies, try store-to-load
// forwarding, and otherwise access the L1D.
func (c *Core) loadAfterAGU(e *robEntry, slot uint32) {
	e.line = c.mem.Line(e.in.Addr)
	e.addrReady = true
	c.lqSetLine(&c.lq[e.lq%int64(len(c.lq))], e.line)

	if w := c.cold[slot].waitStoreID; w != 0 && c.storeUnresolved(w) {
		e.st = sWaitStore
		c.storeBlocked = append(c.storeBlocked, depRef{slot: slot, id: e.id})
		return
	}
	if idx := c.sbMatch(e.id, e.line, false); idx >= 0 {
		// Forward from the youngest matching resolved store.
		c.Stats.LoadForwards++
		c.schedule(c.cfg.Core.ForwardLat, evForwarded, slot, e.id, e.token)
		return
	}
	c.mem.TrainPrefetch(e.in.PC, e.in.Addr)
	c.mem.Access(c.makeTag(slot, e.id), e.in.Addr, false)
}

// storeAfterAGU resolves a store's address: update its SB entry,
// detect memory-order violations by younger loads, prefetch the line
// exclusive, and complete (data sources were ready at issue).
func (c *Core) storeAfterAGU(e *robEntry, slot uint32) {
	e.line = c.mem.Line(e.in.Addr)
	e.addrReady = true
	c.sbResolve(&c.sb[e.sb%int64(len(c.sb))], e.line)
	c.ss.CompleteStore(e.in.PC, e.id)

	// A violation flush only removes loads younger than this store,
	// so the store itself always survives.
	c.checkViolation(e)
	// Exclusive prefetch so the post-commit drain write hits.
	c.mem.Access(cache.TagPrefetch, e.in.Addr, true)
	c.complete(e, slot)
	c.wakeStoreBlocked()
}

// MemResp implements cache.Client: a memory access completed.
func (c *Core) MemResp(tag uint64, info cache.RespInfo) {
	if tag>>63 == 1 {
		// Store-buffer drain GetX completed; the write retries next
		// cycle and will hit.
		c.drainBusy = false
		return
	}
	e, slot := c.fromTag(tag)
	if e == nil {
		return // flushed while the miss was outstanding
	}
	switch e.in.Kind {
	case trace.Load:
		if le := &c.lq[e.lq%int64(len(c.lq))]; le.id == e.id {
			c.lqSetDone(le)
		}
		c.complete(e, slot)
	case trace.Atomic:
		c.atomicLineArrived(e, slot, info)
	default:
		c.fail(fmt.Sprintf("unexpected MemResp for non-memory instruction %s", e.in))
	}
}

// detectDir reports whether the directory-latency detector is active.
func (c *Core) detectDir() bool {
	return c.cfg.RoW.Detection == config.DetectRWDir && c.cfg.RoW.LatencyThreshold >= 0
}

// wrappedLatency computes now-issued using unsigned arithmetic at the
// configured timestamp width, exactly as the 14-bit hardware
// subtractor would (footnote 4 of the paper: a latency in
// [2^14, 2^14+threshold] aliases below the threshold).
func (c *Core) wrappedLatency(issued, now uint64) uint64 {
	mask := uint64(1)<<uint(c.cfg.RoW.TimestampBits) - 1
	return (now - issued) & mask
}

// ExternalRequest implements cache.Client: an Inv or Fwd arrived for
// line. Locked matches stall the request (cache locking) and mark the
// atomic contended (execution-window detection); with the ready
// window enabled, unlocked address matches are marked too.
func (c *Core) ExternalRequest(line uint64, write bool) (stall bool) {
	rw := c.cfg.RoW.Detection == config.DetectRW || c.cfg.RoW.Detection == config.DetectRWDir
	for p := c.aqHead; p < c.aqTail; p++ {
		a := &c.aq[p%int64(len(c.aq))]
		if !a.hasAddr || a.line != line {
			continue
		}
		if a.locked {
			a.contended = true
			stall = true
		} else if rw {
			a.contended = true
		}
	}
	return stall
}

// LineLocked implements cache.Client (eviction veto).
func (c *Core) LineLocked(line uint64) bool {
	for p := c.aqHead; p < c.aqTail; p++ {
		a := &c.aq[p%int64(len(c.aq))]
		if a.locked && a.line == line {
			return true
		}
	}
	return false
}

// LineInvalidated implements cache.Client: the line left the private
// cache. TSO requires squashing speculatively performed loads whose
// value may now violate the global order.
func (c *Core) LineInvalidated(line uint64) {
	if _, pos := c.performedLoad(line, 0); pos >= 0 {
		c.Stats.LQSquashes++
		c.flushFrom(pos)
	}
}

// sbMatch returns the SB index (>=0) of the youngest resolved entry
// older than id writing the same line, or -1. regularOnly excludes
// atomic store_unlocks (atomics only forward from plain stores in our
// design, Section IV-E).
func (c *Core) sbMatch(id uint64, line uint64, regularOnly bool) int {
	if c.sbF[c.bucket(line)] == 0 {
		return -1
	}
	n := int64(len(c.sb))
	for p, i := c.sbTail-1, (c.sbTail-1)%n; p >= c.sbHead; p, i = p-1, i-1 {
		if i < 0 {
			i = n - 1
		}
		se := &c.sb[i]
		if se.id >= id || !se.addrReady || se.line != line {
			continue
		}
		if regularOnly && se.isAtomic {
			continue
		}
		return int(i)
	}
	return -1
}

// storeUnresolved reports whether the store with this id is still in
// the SB without a resolved address.
func (c *Core) storeUnresolved(id uint64) bool {
	for p := c.sbHead; p < c.sbTail; p++ {
		se := &c.sb[p%int64(len(c.sb))]
		if se.id == id {
			return !se.addrReady
		}
	}
	return false // drained or flushed
}

// wakeStoreBlocked rechecks loads blocked on store resolution.
func (c *Core) wakeStoreBlocked() {
	if len(c.storeBlocked) == 0 {
		return
	}
	kept := c.storeBlocked[:0]
	for _, ref := range c.storeBlocked {
		e := c.entryBySlot(ref.slot, ref.id)
		if e == nil || e.st != sWaitStore {
			continue
		}
		if w := c.cold[ref.slot].waitStoreID; w != 0 && c.storeUnresolved(w) {
			kept = append(kept, ref)
			continue
		}
		e.st = sIssued
		if idx := c.sbMatch(e.id, e.line, false); idx >= 0 {
			c.Stats.LoadForwards++
			e.token++
			c.schedule(c.cfg.Core.ForwardLat, evForwarded, ref.slot, e.id, e.token)
		} else {
			c.mem.TrainPrefetch(e.in.PC, e.in.Addr)
			c.mem.Access(c.makeTag(ref.slot, e.id), e.in.Addr, false)
		}
	}
	c.storeBlocked = kept
}

// checkViolation detects loads that speculatively executed past this
// store to the same line (memory-order violation): squash the oldest
// and train the store sets.
func (c *Core) checkViolation(st *robEntry) {
	if e, pos := c.performedLoad(st.line, st.id); pos >= 0 {
		c.Stats.SSViolations++
		c.ss.Violation(e.in.PC, st.in.PC)
		c.flushFrom(pos)
	}
}

// performedLoad returns the oldest plain load younger than id that has
// performed its read of line, and its ROB position, or -1.
func (c *Core) performedLoad(line, id uint64) (*robEntry, int64) {
	if c.lqF[c.bucket(line)] == 0 {
		return nil, -1
	}
	n := int64(len(c.lq))
	for p, i := c.lqHead, c.lqHead%n; p < c.lqTail; p, i = p+1, i+1 {
		if i == n {
			i = 0
		}
		le := &c.lq[i]
		if le.id <= id || !lqCounted(le) || le.line != line {
			continue
		}
		if e := c.entryBySlot(le.slot, le.id); e != nil {
			return e, c.posOfSlot(le.slot)
		}
	}
	return nil, -1
}

// countOlderUnexecuted counts in-flight instructions older than id
// that have not started executing (Fig. 4, first bar).
func (c *Core) countOlderUnexecuted(id uint64) int {
	n := 0
	for p := c.robHead; p < c.robTail; p++ {
		e := c.entry(p)
		if e.id >= id {
			break
		}
		switch e.st {
		case sWaiting, sReady, sWaitStore, sWaitLazy, sWaitLock, sWaitOrder:
			n++
		}
	}
	return n
}

// countYoungerStarted counts instructions younger than id that have
// already started executing (Fig. 4, second bar).
func (c *Core) countYoungerStarted(id uint64) int {
	n := 0
	for p := c.robHead; p < c.robTail; p++ {
		e := c.entry(p)
		if e.id <= id {
			continue
		}
		if e.st == sIssued || e.st == sCompleted {
			n++
		}
	}
	return n
}

// flushFrom squashes every instruction at or after the given absolute
// ROB position, rolling back the LQ/SB/AQ tails, releasing squashed
// locks and restarting fetch at the squash point.
func (c *Core) flushFrom(pos int64) {
	if pos >= c.robTail {
		return
	}
	first := c.entry(pos)
	refetch := first.pi
	// Lock releases are deferred until the rollback finishes: serving
	// a stalled external request re-enters the core (LineInvalidated)
	// and must observe consistent queues.
	released := c.lockBuf[:0]
	c.lockBuf = nil // a re-entrant flush grows its own
	for p := c.robTail - 1; p >= pos; p-- {
		e := c.entry(p)
		if e.lq >= 0 {
			if e.lq != c.lqTail-1 {
				c.fail(fmt.Sprintf("LQ rollback out of order (entry %d, tail %d)", e.lq, c.lqTail))
			}
			c.lqClear(&c.lq[e.lq%int64(len(c.lq))])
			c.lqTail--
		}
		if e.sb >= 0 {
			if e.sb != c.sbTail-1 {
				c.fail(fmt.Sprintf("SB rollback out of order (entry %d, tail %d)", e.sb, c.sbTail))
			}
			c.sbClear(&c.sb[e.sb%int64(len(c.sb))])
			c.sbTail--
		}
		if e.aq >= 0 {
			released = c.squashAQ(e.aq, released)
		}
		if e.in.Kind == trace.Fence || (e.in.Kind == trace.Atomic && c.cfg.Core.FencedAtomics && e.in.LocksLine()) {
			c.removeFence(e.id)
		}
		if c.fetchHoldBy == e.id {
			c.fetchHoldBy = 0
		}
		e.valid = false
		e.token++
		cold := &c.cold[c.slotOf(p)]
		cold.depHead, cold.depTail = 0, 0
	}
	c.robTail = pos

	// Rebuild the rename table from the surviving window, and cut the
	// flushed consumers off its dependency lists.
	c.rename = [trace.NumRegs]depRef{}
	for p := c.robHead; p < c.robTail; p++ {
		e, slot := c.entry(p), c.slotOf(p)
		if e.in.Dst != 0 {
			c.rename[e.in.Dst] = depRef{slot: slot, id: e.id}
		}
		if c.cold[slot].depHead != 0 {
			c.cutDeps(slot, first.id)
		}
	}

	c.lockWait = c.dropFlushed(c.lockWait)
	c.storeBlocked = c.dropFlushed(c.storeBlocked)

	c.fetchIdx = int(refetch)
	c.fetchFreeAt = c.now + uint64(c.cfg.Core.RedirectPenalty)

	for _, line := range released {
		c.mem.LockReleased(line)
	}
	c.lockBuf = released
}

// dropFlushed filters the refs of instructions a flush removed out of a
// wait list, in place. No caller walks a list that a flush can
// shorten: wakeLockWaiters re-issues from its own buffer, and
// wakeStoreBlocked's accesses never invalidate a line.
func (c *Core) dropFlushed(l []depRef) []depRef {
	kept := l[:0]
	for _, ref := range l {
		if c.entryBySlot(ref.slot, ref.id) != nil {
			kept = append(kept, ref)
		}
	}
	return kept
}

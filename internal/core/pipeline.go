package core

import (
	"fmt"

	"rowsim/internal/config"
	"rowsim/internal/trace"
)

// Tick advances the core by one cycle. Stages run back to front so an
// instruction moves at most one stage per cycle.
func (c *Core) Tick(cycle uint64) {
	if c.done {
		return
	}
	c.now = cycle
	c.memPortsUsed = 0
	c.processWheel()
	c.commit()
	c.drainSB()
	c.checkOrderWait()
	c.checkLazy()
	c.issue()
	c.dispatch()
	c.checkDone()
}

// processWheel drains this cycle's completion events.
func (c *Core) processWheel() {
	for evs := c.wheel.Take(c.now); !evs.Empty(); {
		ev := c.wheel.Pop(&evs)
		e := c.entryBySlot(ev.slot, ev.id)
		if e == nil || e.token != ev.token {
			continue // flushed or cancelled
		}
		c.work++
		switch ev.kind {
		case evALUDone:
			c.complete(e, ev.slot)
		case evLoadAGU:
			c.loadAfterAGU(e, ev.slot)
		case evStoreAGU:
			c.storeAfterAGU(e, ev.slot)
		case evAtomicAGU:
			c.atomicAfterAGU(e, ev.slot)
		case evAtomicOp:
			c.complete(e, ev.slot)
		case evForwarded: // a load's, which always has an LQ entry
			c.lqSetDone(&c.lq[e.lq%int64(len(c.lq))])
			c.complete(e, ev.slot)
		case evAtomicRetry:
			c.tryLock(e, ev.slot)
		case evAtomicFwdValue:
			c.forwardValue(e, ev.slot)
		}
	}
}

// complete marks an instruction executed and wakes its dependents.
func (c *Core) complete(e *robEntry, slot uint32) {
	c.work++
	e.st = sCompleted
	c.cold[slot].completeAt = c.now
	e.valueReady = true
	c.wakeDependents(slot)

	if e.mispred && c.fetchHoldBy == e.id {
		c.fetchHoldBy = 0
		c.fetchFreeAt = c.now + uint64(c.cfg.Core.RedirectPenalty)
	}
}

// wakeDependents releases register consumers of the instruction in
// slot, oldest first, and empties its list.
func (c *Core) wakeDependents(slot uint32) {
	cold := &c.cold[slot]
	for n := cold.depHead; n != 0; n = *c.depLink(n) {
		ds := n.slot()
		de := &c.rob[ds]
		if de.srcPending == 0 {
			continue
		}
		de.srcPending--
		if de.srcPending == 0 && de.st == sWaiting {
			c.makeReady(de, ds)
		}
	}
	cold.depHead, cold.depTail = 0, 0
}

// depLink is the link out of node n.
func (c *Core) depLink(n depNode) *depNode { return &c.cold[n.slot()].depNext[(n-1)&1] }

// linkDep appends source k of the consumer in slot to the producer's
// list.
func (c *Core) linkDep(producer, slot uint32, k int) {
	n := depNode(2*slot) + depNode(k) + 1
	*c.depLink(n) = 0
	p := &c.cold[producer]
	if p.depTail == 0 {
		p.depHead = n
	} else {
		*c.depLink(p.depTail) = n
	}
	p.depTail = n
}

// cutDeps ends the producer's list before its first consumer with an
// id of at least from: the consumers a flush from that id removes,
// which are the list's tail.
func (c *Core) cutDeps(producer uint32, from uint64) {
	p := &c.cold[producer]
	var last depNode
	for n := p.depHead; n != 0 && c.rob[n.slot()].id < from; n = *c.depLink(n) {
		last = n
	}
	if last == 0 {
		p.depHead, p.depTail = 0, 0
		return
	}
	*c.depLink(last) = 0
	p.depTail = last
}

// forwardValue makes an atomic's result visible to dependents before
// the lock completes (the RMW data came from an older store by
// forwarding, Section IV-E).
func (c *Core) forwardValue(e *robEntry, slot uint32) {
	if e.valueReady {
		return
	}
	e.valueReady = true
	c.wakeDependents(slot)
}

// makeReady routes a dependency-resolved instruction to the ready
// queue, or straight to sWaitLazy for atomics issued lazily without the
// early address-calculation pass.
func (c *Core) makeReady(e *robEntry, slot uint32) {
	if e.in.Kind == trace.Atomic && e.lazy && !c.cfg.EarlyAddrCalc() {
		e.st = sWaitLazy
		return
	}
	if e.in.Kind == trace.Fence {
		return // fences complete at the ROB head
	}
	e.st = sReady
	c.readyQ = append(c.readyQ, depRef{slot: slot, id: e.id})
}

// commit retires completed instructions in order.
func (c *Core) commit() {
	width := c.cfg.Core.CommitWidth
	for n := 0; n < width && c.robHead < c.robTail; n++ {
		e := c.entry(c.robHead)
		if e.in.Kind == trace.Fence && e.st != sCompleted {
			// A fence completes at the head once every OLDER store
			// has drained. Younger stores may already occupy the SB
			// (they dispatched behind the fence) — they cannot drain
			// before the fence commits, so waiting for a fully empty
			// SB would deadlock.
			olderDrained := c.sbHead == c.sbTail || c.sb[c.sbHead%int64(len(c.sb))].id > e.id
			if e.srcPending == 0 && olderDrained {
				c.complete(e, c.slotOf(c.robHead))
				c.removeFence(e.id)
				c.wakeFenceBlocked()
			} else {
				break
			}
		}
		if e.st != sCompleted {
			break
		}
		if e.in.Kind == trace.Atomic && e.sb >= 0 && e.sb != c.sbHead {
			// Total order for atomics: drain the SB before leaving
			// the ROB (Free Atomics, Section II-B).
			break
		}
		// Retire.
		switch e.in.Kind {
		case trace.Load:
			if e.lq != c.lqHead {
				c.fail(fmt.Sprintf("LQ head mismatch at load retire (%d != %d)", e.lq, c.lqHead))
			}
			c.lqClear(&c.lq[c.lqHead%int64(len(c.lq))])
			c.lqHead++
		case trace.Store:
			c.sb[e.sb%int64(len(c.sb))].committed = true
		case trace.Atomic:
			if e.lq != c.lqHead {
				c.fail(fmt.Sprintf("LQ head mismatch at atomic retire (%d != %d)", e.lq, c.lqHead))
			}
			c.lqClear(&c.lq[c.lqHead%int64(len(c.lq))])
			c.lqHead++
			c.sb[e.sb%int64(len(c.sb))].committed = true
			if e.in.LocksLine() {
				c.Stats.Atomics++
			}
		}
		e.valid = false
		c.robHead++
		c.Stats.Committed++
		c.work++
	}
}

// drainSB retires up to two store-buffer entries per cycle (two store
// ports): committed stores write to the L1D in order; atomic
// store_unlocks additionally clear their AQ entry and release the
// cacheline lock.
func (c *Core) drainSB() {
	for n := 0; n < 2; n++ {
		if c.sbHead == c.sbTail || c.drainBusy {
			return
		}
		h := &c.sb[c.sbHead%int64(len(c.sb))]
		if !h.committed || !h.addrReady {
			return
		}
		if !c.mem.StoreComplete(h.line) {
			// Need write permission first.
			c.work++
			c.drainBusy = true
			c.mem.Access(c.sbDrainTag(), h.line, true)
			return
		}
		c.work++
		if h.isAtomic {
			c.unlockAtomic(h)
		}
		c.sbClear(h)
		c.sbHead++
	}
}

func (c *Core) sbDrainTag() uint64 { return 1<<63 | uint64(c.sbHead) }

// checkLazy issues the atomic whose lazy conditions are now met: the
// oldest memory instruction (head of the LQ) with a drained SB (its own
// store_unlock entry at the SB head), its sources ready and a port free.
func (c *Core) checkLazy() {
	e, slot := c.lazyHead()
	if e == nil || c.memPortsUsed >= c.cfg.Core.MemPorts {
		return
	}
	c.work++
	c.memPortsUsed++
	e.st = sIssued
	if !e.addrCalcDone {
		e.token++
		c.schedule(c.cfg.Core.AGULatency, evAtomicAGU, slot, e.id, e.token)
	} else {
		c.tryLock(e, slot)
	}
}

// lazyHead returns the LQ head's instruction when it is an atomic in
// sWaitLazy with its sources ready and its SB entry at the SB head, or
// nil.
func (c *Core) lazyHead() (*robEntry, uint32) {
	le := &c.lq[c.lqHead%int64(len(c.lq))]
	if c.lqHead == c.lqTail || !le.isAtomic {
		return nil, 0
	}
	e := c.entryBySlot(le.slot, le.id)
	if e == nil || e.st != sWaitLazy || e.srcPending != 0 || e.sb != c.sbHead {
		return nil, 0
	}
	return e, le.slot
}

func (c *Core) lazyReady(e *robEntry) bool {
	return e.lq == c.lqHead && e.sb == c.sbHead
}

// fenceBlocks reports whether an uncompleted fence older than id is
// in flight (younger memory operations must not issue past it).
func (c *Core) fenceBlocks(id uint64) bool {
	return len(c.fenceIDs) > 0 && c.fenceIDs[0] < id
}

func (c *Core) removeFence(id uint64) {
	for i, f := range c.fenceIDs {
		if f == id {
			c.fenceIDs = append(c.fenceIDs[:i], c.fenceIDs[i+1:]...)
			return
		}
	}
}

func (c *Core) wakeFenceBlocked() {
	if len(c.fenceBlocked) == 0 {
		return
	}
	for _, ref := range c.fenceBlocked {
		e := c.entryBySlot(ref.slot, ref.id)
		if e == nil || e.st != sWaitStore {
			continue
		}
		e.st = sReady
		c.readyQ = append(c.readyQ, ref)
	}
	c.fenceBlocked = c.fenceBlocked[:0]
}

// issue moves ready instructions into execution, bounded by the issue
// width and L1D ports.
func (c *Core) issue() {
	budget := c.cfg.Core.IssueWidth
	q := c.readyQ
	kept := q[:0]
	for i, ref := range q {
		if budget == 0 {
			kept = append(kept, q[i:]...)
			break
		}
		e := c.entryBySlot(ref.slot, ref.id)
		if e == nil || e.st != sReady {
			continue
		}
		if e.in.IsMem() {
			if c.fenceBlocks(e.id) {
				c.work++
				e.st = sWaitStore
				c.fenceBlocked = append(c.fenceBlocked, ref)
				continue
			}
			if c.memPortsUsed >= c.cfg.Core.MemPorts {
				kept = append(kept, ref)
				continue
			}
			c.memPortsUsed++
		}
		c.work++
		budget--
		e.st = sIssued
		e.token++
		co := &c.cfg.Core
		switch e.in.Kind {
		case trace.IntOp, trace.Branch:
			c.schedule(co.IntALULatency, evALUDone, ref.slot, e.id, e.token)
		case trace.IntMul:
			c.schedule(co.IntMulLatency, evALUDone, ref.slot, e.id, e.token)
		case trace.FPOp:
			c.schedule(co.FPLatency, evALUDone, ref.slot, e.id, e.token)
		case trace.Load:
			c.schedule(co.AGULatency, evLoadAGU, ref.slot, e.id, e.token)
		case trace.Store:
			c.schedule(co.AGULatency, evStoreAGU, ref.slot, e.id, e.token)
		case trace.Atomic:
			c.schedule(co.AGULatency, evAtomicAGU, ref.slot, e.id, e.token)
		default:
			c.fail(fmt.Sprintf("cannot issue unknown instruction kind %s", e.in))
			continue
		}
	}
	c.readyQ = kept
}

// dispatch fetches, renames and allocates new instructions.
func (c *Core) dispatch() {
	if c.fetchHoldBy != 0 || c.now < c.fetchFreeAt {
		return
	}
	for n := 0; n < c.cfg.Core.FetchWidth; n++ {
		if c.fetchIdx >= len(c.prog) || c.robFull() {
			return
		}
		in := &c.prog[c.fetchIdx]
		// Instruction cache: a miss on a new fetch line stalls the
		// front end while the line fills from the L2. A next-line
		// prefetcher hides sequential misses, so only discontinuous
		// fetch (branch targets, template wrap-around) pays.
		if line := in.PC & c.l1iLineMask; line != c.l1iLastLine {
			c.work++
			sequential := line == c.l1iLastLine+uint64(c.cfg.Mem.LineBytes)
			c.l1iLastLine = line
			if c.l1i.Lookup(line, true) == nil {
				c.l1i.Insert(line, 0)
				c.l1iMisses++
				if !sequential {
					c.fetchFreeAt = c.now + uint64(c.cfg.Mem.L2.HitCycles)
					return
				}
			}
		}
		if c.noRoom(in) {
			return
		}
		c.dispatchOne(in)
		c.fetchIdx++
		if c.fetchHoldBy != 0 {
			return // mispredicted branch: stall the front end
		}
	}
}

// noRoom reports whether a queue in needs is full (a structural hazard).
func (c *Core) noRoom(in *trace.Instr) bool {
	switch in.Kind {
	case trace.Load:
		return c.lqTail-c.lqHead >= int64(len(c.lq))
	case trace.Store:
		return c.sbTail-c.sbHead >= int64(len(c.sb))
	case trace.Atomic:
		return c.lqTail-c.lqHead >= int64(len(c.lq)) || c.sbTail-c.sbHead >= int64(len(c.sb)) ||
			in.LocksLine() && c.aqTail-c.aqHead >= int64(len(c.aq))
	}
	return false
}

func (c *Core) dispatchOne(in *trace.Instr) {
	c.work++
	pos := c.robTail
	slot := c.slotOf(pos)
	id := c.nextID
	c.nextID++
	e := &c.rob[slot]
	*e = robEntry{
		valid: true,
		id:    id,
		pi:    int32(c.fetchIdx),
		in:    in,
		st:    sWaiting,
		lq:    -1,
		sb:    -1,
		aq:    -1,
		token: e.token + 1,
	}
	cold := &c.cold[slot]
	*cold = robCold{dispatchAt: c.now}
	c.robTail++

	// Rename sources.
	for k, r := range [2]trace.Reg{in.Src1, in.Src2} {
		if r == 0 {
			continue
		}
		ref := c.rename[r]
		if ref.id == 0 {
			continue
		}
		p := c.entryBySlot(ref.slot, ref.id)
		if p == nil || p.st == sCompleted || p.valueReady {
			continue
		}
		e.srcPending++
		c.linkDep(ref.slot, slot, k)
	}
	if in.Dst != 0 {
		c.rename[in.Dst] = depRef{slot: slot, id: id}
	}

	switch in.Kind {
	case trace.Branch:
		c.Stats.Branches++
		if c.bp.PredictAndTrain(in.PC, in.Taken) {
			c.Stats.Mispredicts++
			e.mispred = true
			c.fetchHoldBy = id
		}
	case trace.Fence:
		c.fenceIDs = append(c.fenceIDs, id)
	case trace.Load:
		e.lq = c.lqTail
		c.lq[c.lqTail%int64(len(c.lq))] = lqEntry{id: id, slot: slot}
		c.lqTail++
		cold.waitStoreID = c.ss.DispatchLoad(in.PC)
	case trace.Store:
		e.sb = c.sbTail
		c.sb[c.sbTail%int64(len(c.sb))] = sbEntry{id: id, slot: slot}
		c.sbTail++
		c.ss.DispatchStore(in.PC, id)
	case trace.Atomic:
		c.dispatchAtomic(e, in, slot, id)
	}

	if e.srcPending == 0 {
		c.makeReady(e, slot)
	}
}

// dispatchAtomic allocates the atomic's LQ/SB/AQ entries and decides
// its execution policy (the RoW prediction happens here, at
// allocation, using the PC).
func (c *Core) dispatchAtomic(e *robEntry, in *trace.Instr, slot uint32, id uint64) {
	e.lq = c.lqTail
	c.lq[c.lqTail%int64(len(c.lq))] = lqEntry{id: id, slot: slot, isAtomic: true}
	c.lqTail++
	e.sb = c.sbTail
	c.sb[c.sbTail%int64(len(c.sb))] = sbEntry{id: id, slot: slot, isAtomic: true}
	c.sbTail++

	if !in.LocksLine() {
		return // plain RMW: no AQ entry, no policy decision
	}

	switch c.cfg.Policy {
	case config.PolicyEager:
		e.lazy = false
	case config.PolicyLazy:
		e.lazy = true
	case config.PolicyRoW:
		e.predContended = c.cp.Predict(in.PC)
		e.lazy = e.predContended
		if e.lazy {
			c.Stats.PredictedLazy++
		}
	}
	if c.cfg.Core.FencedAtomics {
		e.lazy = true
		c.fenceIDs = append(c.fenceIDs, id)
	}

	e.aq = c.aqTail
	c.aq[c.aqTail%int64(len(c.aq))] = aqEntry{
		id:            id,
		slot:          slot,
		pc:            in.PC,
		predContended: e.predContended,
		trainable:     c.cfg.Policy == config.PolicyRoW,
	}
	c.aqTail++
}

// checkDone latches completion once the whole program has committed
// and the buffers have drained.
func (c *Core) checkDone() {
	if c.fetchIdx >= len(c.prog) && c.robHead == c.robTail && c.sbHead == c.sbTail {
		c.work++
		c.done = true
		c.finishedAt = c.now
	}
}

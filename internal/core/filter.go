package core

// The LQ and SB line filters (Core.lqF, Core.sbF). An entry is counted
// in its line's bucket while it is what a same-line search looks for:
// an LQ entry while it is a performed plain load with its line, an SB
// entry while its address is resolved. Every write to the fields those
// predicates read goes through the helpers below, which take the entry
// out of its bucket, change it and put it back. Restore recounts both
// filters from the windows.

// bucket maps a line address to its filter counter.
func (c *Core) bucket(line uint64) uint8 { return uint8(line >> c.lineShift) }

// lqCounted reports whether le is counted in lqF.
func lqCounted(le *lqEntry) bool { return le.done && le.hasLine && !le.isAtomic }

func (c *Core) lqUntrack(le *lqEntry) {
	if lqCounted(le) {
		c.lqF[c.bucket(le.line)]--
	}
}

func (c *Core) lqTrack(le *lqEntry) {
	if lqCounted(le) {
		c.lqF[c.bucket(le.line)]++
	}
}

// lqSetLine records the line a load or atomic's address resolved to.
func (c *Core) lqSetLine(le *lqEntry, line uint64) {
	c.lqUntrack(le)
	le.line, le.hasLine = line, true
	c.lqTrack(le)
}

// lqSetDone marks the entry's read performed.
func (c *Core) lqSetDone(le *lqEntry) {
	c.lqUntrack(le)
	le.done = true
	c.lqTrack(le)
}

// lqClear frees the entry (retire or squash).
func (c *Core) lqClear(le *lqEntry) {
	c.lqUntrack(le)
	*le = lqEntry{}
}

// sbResolve records the line a store or atomic's address resolved to.
func (c *Core) sbResolve(se *sbEntry, line uint64) {
	if se.addrReady {
		c.sbF[c.bucket(se.line)]--
	}
	se.line, se.addrReady = line, true
	c.sbF[c.bucket(line)]++
}

// sbClear frees the entry (drain or squash).
func (c *Core) sbClear(se *sbEntry) {
	if se.addrReady {
		c.sbF[c.bucket(se.line)]--
	}
	*se = sbEntry{}
}

// countFilters recounts both filters from the live queue windows.
func (c *Core) countFilters() (lq, sb lineFilter) {
	for p := c.lqHead; p < c.lqTail; p++ {
		if le := &c.lq[p%int64(len(c.lq))]; lqCounted(le) {
			lq[c.bucket(le.line)]++
		}
	}
	for p := c.sbHead; p < c.sbTail; p++ {
		if se := &c.sb[p%int64(len(c.sb))]; se.addrReady {
			sb[c.bucket(se.line)]++
		}
	}
	return lq, sb
}

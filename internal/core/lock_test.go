package core

import (
	"strings"
	"testing"

	"rowsim/internal/cache"
	"rowsim/internal/config"
	"rowsim/internal/trace"
)

const (
	coldAddr = 0x99990000 // misses on the null network and never fills
	lineA    = 0x40000100
	lineB    = 0x40000200
)

func lockCfg(p config.AtomicPolicy) *config.Config {
	cfg := smallCoreCfg()
	cfg.Policy = p
	return cfg
}

// mulChain is n dependent multiplies into r1 from PC pc on: a source
// that resolves about 3n cycles after dispatch.
func mulChain(pc uint64, n int) trace.Program {
	prog := trace.Program{{PC: pc, Kind: trace.IntMul, Dst: 1}}
	for i := 1; i < n; i++ {
		prog = append(prog, trace.Instr{PC: pc + uint64(4*i), Kind: trace.IntMul, Src1: 1, Dst: 1})
	}
	return prog
}

func faa(pc, addr uint64, src trace.Reg) trace.Instr {
	return trace.Instr{PC: pc, Kind: trace.Atomic, Src1: src, Dst: 2, Addr: addr, Size: 8, AtomicOp: trace.FAA}
}

// runUntil ticks c from cycle from until cond holds and returns the
// next cycle.
func runUntil(t *testing.T, c *Core, from uint64, cond func() bool) uint64 {
	t.Helper()
	for cyc := from; cyc < from+1000; cyc++ {
		c.Mem().Tick(cyc)
		c.Tick(cyc)
		if cond() {
			return cyc + 1
		}
	}
	t.Fatalf("condition not reached by cycle %d: %s", from+1000, c)
	return 0
}

// inFlight returns the in-flight instruction with program index pi and
// its slot, or nil.
func inFlight(c *Core, pi int32) (*robEntry, uint32) {
	for p := c.robHead; p < c.robTail; p++ {
		if e := c.entry(p); e.pi == pi {
			return e, c.slotOf(p)
		}
	}
	return nil, 0
}

func (c *Core) aqOf(e *robEntry) *aqEntry { return &c.aq[e.aq%int64(len(c.aq))] }

// lockedAtomic reports whether the instruction at pi holds its lock.
func lockedAtomic(c *Core, pi int32) func() bool {
	return func() bool {
		e, _ := inFlight(c, pi)
		return e != nil && e.aq >= 0 && c.aqOf(e).locked
	}
}

// TestSquashWhileLocked: an eager atomic locks behind an older load
// that has performed, with a cold load holding the ROB head. A squash
// of the load, by an invalidation of its line or by an older store
// resolving to it, takes the atomic too: its lock is released and
// counted, and the AQ is empty.
func TestSquashWhileLocked(t *testing.T) {
	prog := append(trace.Program{{PC: 4, Kind: trace.Load, Dst: 9, Addr: coldAddr, Size: 8}}, mulChain(8, 8)...)
	prog = append(prog,
		trace.Instr{PC: 64, Kind: trace.Store, Src1: 1, Addr: lineA, Size: 8},
		trace.Instr{PC: 68, Kind: trace.Load, Dst: 3, Addr: lineA, Size: 8},
		faa(72, lineB, 0),
	)
	atomic := int32(len(prog) - 1)
	for _, tc := range []struct {
		name   string
		squash func(t *testing.T, c *Core, next uint64)
	}{
		{"invalidation", func(t *testing.T, c *Core, _ uint64) {
			c.LineInvalidated(lineA)
			if c.Stats.LQSquashes != 1 {
				t.Fatalf("%d LQ squashes, want 1", c.Stats.LQSquashes)
			}
		}},
		{"older store", func(t *testing.T, c *Core, next uint64) {
			runUntil(t, c, next, func() bool { return c.Stats.SSViolations != 0 })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newWiredCore(t, lockCfg(config.PolicyEager), prog, []uint64{lineA, lineB})
			next := runUntil(t, c, 1, lockedAtomic(c, atomic))
			if st, _ := inFlight(c, atomic-2); st.addrReady {
				t.Fatal("the store resolved before the atomic locked; the test proves nothing")
			}
			tc.squash(t, c, next)
			if got := c.Stats.Transitions[SquashLocked]; got != 1 {
				t.Errorf("squash-while-locked count %d, want 1", got)
			}
			if c.LineLocked(lineB) {
				t.Error("the squashed atomic's line is still locked")
			}
			if c.aqHead != c.aqTail {
				t.Errorf("AQ holds %d entries after the squash, want none", c.aqTail-c.aqHead)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestForceReleaseEager: a locked eager atomic that is not about to
// unlock gives its lock up, is marked contended and schedules its
// retry two cycles on, after which it locks again.
func TestForceReleaseEager(t *testing.T) {
	prog := trace.Program{{PC: 4, Kind: trace.Load, Dst: 9, Addr: coldAddr, Size: 8}, faa(8, lineB, 0)}
	c := newWiredCore(t, lockCfg(config.PolicyEager), prog, []uint64{lineB})
	next := runUntil(t, c, 1, lockedAtomic(c, 1))
	e, slot := inFlight(c, 1)
	if !c.ForceRelease(lineB) {
		t.Fatal("ForceRelease refused a lock whose unlock is not imminent")
	}
	if got := c.Stats.Transitions[ForcedReleaseEager]; got != 1 {
		t.Errorf("eager forced releases %d, want 1", got)
	}
	if c.LineLocked(lineB) || !c.aqOf(e).contended || e.st != sIssued {
		t.Errorf("after the release: locked=%v contended=%v st=%d, want false, true, sIssued",
			c.LineLocked(lineB), c.aqOf(e).contended, e.st)
	}
	retry := false
	for _, ev := range c.wheel.Bucket(c.now + 2) {
		retry = retry || ev.kind == evAtomicRetry && ev.slot == slot && ev.id == e.id && ev.token == e.token
	}
	if !retry {
		t.Fatal("no evAtomicRetry two cycles on")
	}
	runUntil(t, c, next, lockedAtomic(c, 1))
	if got := c.Stats.Transitions[Lock]; got != 2 {
		t.Errorf("locks %d, want 2 (the retry locks again)", got)
	}
}

// TestForceReleaseLazy: a lazy atomic locked while an older multiply
// chain holds the ROB head goes back to sWaitLazy when its lock is
// broken, issues again from the LQ head and commits.
func TestForceReleaseLazy(t *testing.T) {
	prog := append(mulChain(4, 20), faa(200, lineB, 0))
	atomic := int32(len(prog) - 1)
	c := newWiredCore(t, lockCfg(config.PolicyLazy), prog, []uint64{lineB})
	next := runUntil(t, c, 1, lockedAtomic(c, atomic))
	e, _ := inFlight(c, atomic)
	if !c.ForceRelease(lineB) {
		t.Fatal("ForceRelease refused a lazy lock behind an unfinished ROB head")
	}
	if got := c.Stats.Transitions[ForcedReleaseLazy]; got != 1 {
		t.Errorf("lazy forced releases %d, want 1", got)
	}
	if e.st != sWaitLazy || c.LineLocked(lineB) {
		t.Errorf("after the release: st=%d locked=%v, want sWaitLazy, false", e.st, c.LineLocked(lineB))
	}
	runUntil(t, c, next, c.Done)
	tr := &c.Stats.Transitions
	if tr[LazyIssue] != 2 || tr[Lock] != 2 || tr[Unlock] != 1 || c.Stats.Atomics != 1 {
		t.Errorf("lazy issues %d, locks %d, unlocks %d, atomics %d; want 2, 2, 1, 1",
			tr[LazyIssue], tr[Lock], tr[Unlock], c.Stats.Atomics)
	}
}

// TestForceReleaseRefused: a lock about to unlock stays. With commit
// held back, the atomic completes at the ROB head with its SB entry at
// the SB head; once committed, its ROB entry is gone and only the
// store_unlock's drain is left. Both refuse, and the drain unlocks.
func TestForceReleaseRefused(t *testing.T) {
	cfg := lockCfg(config.PolicyEager)
	cfg.Core.CommitWidth = 0
	c := newWiredCore(t, cfg, trace.Program{faa(4, lineB, 0)}, []uint64{lineB})
	next := runUntil(t, c, 1, func() bool { e, _ := inFlight(c, 0); return e != nil && e.st == sCompleted })
	if c.ForceRelease(lineB) {
		t.Fatal("ForceRelease broke the lock of a completed atomic at the ROB and SB heads")
	}
	if got := c.Stats.Transitions[Refusal]; got != 1 || !c.LineLocked(lineB) {
		t.Fatalf("refusals %d, locked %v; want 1, true", got, c.LineLocked(lineB))
	}

	cfg.Core.CommitWidth = 12
	c.commit()
	if c.robHead != c.robTail || c.aqHead == c.aqTail {
		t.Fatalf("commit left rob=%d aq=%d entries, want 0 and 1", c.robTail-c.robHead, c.aqTail-c.aqHead)
	}
	if c.ForceRelease(lineB) {
		t.Fatal("ForceRelease broke the lock of a committed atomic")
	}
	if got := c.Stats.Transitions[Refusal]; got != 2 || !c.LineLocked(lineB) {
		t.Fatalf("refusals %d, locked %v; want 2, true", got, c.LineLocked(lineB))
	}
	runUntil(t, c, next, c.Done)
	if c.LineLocked(lineB) || c.Stats.Transitions[Unlock] != 1 {
		t.Fatalf("after the drain: locked %v, unlocks %d; want false, 1", c.LineLocked(lineB), c.Stats.Transitions[Unlock])
	}
}

// TestFillWaitsBehindOlderSameLineAtomic: a younger atomic requests its
// line before an older same-line atomic knows its address; when the
// fill arrives the older one does, so the younger waits for its unlock
// instead of locking or waiting for lock order.
func TestFillWaitsBehindOlderSameLineAtomic(t *testing.T) {
	prog := append(mulChain(4, 4), faa(100, coldAddr, 1), faa(104, coldAddr, 0))
	older, younger := int32(len(prog)-2), int32(len(prog)-1)
	c := newWiredCore(t, lockCfg(config.PolicyEager), prog, nil)
	runUntil(t, c, 1, func() bool { e, _ := inFlight(c, younger); return e != nil && e.st == sIssued && e.addrReady })
	if o, _ := inFlight(c, older); c.aqOf(o).hasAddr {
		t.Fatal("the older atomic knew its address when the younger issued; the test proves nothing")
	}
	runUntil(t, c, 1, func() bool { o, _ := inFlight(c, older); return c.aqOf(o).hasAddr })

	y, slot := inFlight(c, younger)
	c.MemResp(c.makeTag(slot, y.id), cache.RespInfo{})
	if y.st != sWaitLock || c.aqOf(y).locked {
		t.Fatalf("younger atomic st=%d locked=%v after its fill, want sWaitLock, unlocked", y.st, c.aqOf(y).locked)
	}
	if got := c.Stats.Transitions[LockWaitAtFill]; got != 1 {
		t.Errorf("lock waits at fill %d, want 1", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestCheckInvariantsNamesTheCheck: a locked AQ entry with an older
// entry on its line, or a filter count no queue entry backs, is
// reported by name.
func TestCheckInvariantsNamesTheCheck(t *testing.T) {
	c := testCore(t, nil)
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("an empty core: %v", err)
	}
	c.aq[0] = aqEntry{id: 3, line: 0x100, hasAddr: true}
	c.aq[1] = aqEntry{id: 5, line: 0x100, hasAddr: true, locked: true}
	c.aqTail = 2
	if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "breaks lock order: locked atomic 5") {
		t.Errorf("younger same-line lock: err = %v, want a lock-order error naming atomic 5", err)
	}
	c.aqTail = 0
	c.sbF[7] = 1
	if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "line filters") {
		t.Errorf("stray filter count: err = %v, want a line-filter error", err)
	}
}

// TestLazyWaitsForItsStoreToDrain: a lazy atomic at the LQ head with
// its sources ready still waits while an older store, which cannot
// drain (its line never fills), is ahead of its own store_unlock entry
// in the SB.
func TestLazyWaitsForItsStoreToDrain(t *testing.T) {
	prog := trace.Program{{PC: 4, Kind: trace.Store, Addr: coldAddr, Size: 8}, faa(8, lineB, 0)}
	c := newWiredCore(t, lockCfg(config.PolicyLazy), prog, []uint64{lineB})
	next := runUntil(t, c, 1, func() bool { e, _ := inFlight(c, 1); return e != nil && e.st == sWaitLazy })
	runCycles(c, next, 200)
	e, _ := inFlight(c, 1)
	if e == nil || e.lq != c.lqHead || e.srcPending != 0 || e.sb == c.sbHead {
		t.Fatal("the atomic is not a ready LQ head behind an older store; the test proves nothing")
	}
	if e.st != sWaitLazy || c.Stats.Transitions[LazyIssue] != 0 {
		t.Fatalf("atomic st=%d after %d lazy issues, want sWaitLazy and none: it issued past the older store", e.st, c.Stats.Transitions[LazyIssue])
	}
}

// TestOrderWaitHoldsBehindOlderUnlocked: a younger atomic whose line
// arrived while an older atomic was unlocked waits in sWaitOrder, and
// retries only when the oldest unlocked entry is its own: the older
// one, whose line never fills, stays unlocked, so it never retries.
func TestOrderWaitHoldsBehindOlderUnlocked(t *testing.T) {
	prog := trace.Program{faa(4, coldAddr, 0), faa(8, lineB, 0)}
	c := newWiredCore(t, lockCfg(config.PolicyEager), prog, []uint64{lineB})
	next := runUntil(t, c, 1, func() bool { return c.Stats.Transitions[OrderWait] != 0 })
	runCycles(c, next, 200)
	if o, _ := inFlight(c, 0); o == nil || c.aqOf(o).locked {
		t.Fatal("the older atomic is not in flight and unlocked; the test proves nothing")
	}
	y, _ := inFlight(c, 1)
	if y.st != sWaitOrder || c.aqOf(y).locked || c.Stats.Transitions[WakeOrderWait] != 0 {
		t.Fatalf("younger atomic st=%d locked=%v after %d order-wait wakes, want sWaitOrder, unlocked, none",
			y.st, c.aqOf(y).locked, c.Stats.Transitions[WakeOrderWait])
	}
}

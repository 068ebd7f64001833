package core

import (
	"fmt"

	"rowsim/internal/predictor"
	"rowsim/internal/slab"
	"rowsim/internal/sram"
	"rowsim/internal/trace"
)

// Snapshot/Restore for the out-of-order core: the checkpoint half that
// rowcheck never needed (the model checker drives tiny hand-rolled
// programs, not the full pipeline). A snapshot deep-copies every field
// that evolves during a run.
//
// Two rules keep restored runs byte-identical to uninterrupted ones:
//
//   - Ring buffers (ROB, LQ, SB, AQ, execution wheel) are serialized in
//     full, dead slots included. A dead ROB slot still carries its token
//     counter, which dispatch reads to invalidate stale wheel events —
//     dropping dead slots would fork the token sequence.
//   - Instruction pointers are serialized as program indexes. The trace
//     is a pure function of (params, cores, instrs, seed), so the caller
//     regenerates it and Restore rebinds in = &prog[pi]; the checkpoint
//     never stores the trace itself.
//
// Construction-time state (config, robMask, l1iLineMask, lineShift,
// the attached cache and error sink) is rebuilt by core.New and
// excluded. The LQ/SB line filters are derived from the queues:
// Restore recounts them. A ROB slot's snapshot joins its hot robEntry
// and its robCold.

// DepRef is the exported view of one dependence edge.
type DepRef struct {
	Slot uint32
	ID   uint64
}

// ROBEntrySnap is the exported view of one reorder-buffer slot. In is
// represented by Pi, the program index (-1 when the slot never held an
// instruction).
type ROBEntrySnap struct {
	Valid bool
	ID    uint64
	Pi    int32
	St    uint8

	SrcPending int8
	Token      uint16
	Deps       []DepRef

	DispatchAt uint64
	CompleteAt uint64

	Line      uint64
	AddrReady bool
	LQ        int64
	SB        int64
	AQ        int64

	WaitStoreID uint64
	Mispred     bool
	ValueReady  bool

	Lazy          bool
	PredContended bool
	AddrCalcDone  bool
	LockIssueAt   uint64
}

// SBEntrySnap is the exported view of one store-buffer slot.
type SBEntrySnap struct {
	ID        uint64
	Slot      uint32
	Line      uint64
	AddrReady bool
	Committed bool
	IsAtomic  bool
}

// LQEntrySnap is the exported view of one load-queue slot.
type LQEntrySnap struct {
	ID       uint64
	Slot     uint32
	Line     uint64
	HasLine  bool
	IsAtomic bool
	Done     bool
}

// AQEntrySnap is the exported view of one Atomic Queue slot.
type AQEntrySnap struct {
	ID        uint64
	Slot      uint32
	PC        uint64
	Line      uint64
	HasAddr   bool
	Locked    bool
	Contended bool
	LockAt    uint64

	PredContended bool
	Trainable     bool
}

// WheelEventSnap is the exported view of one scheduled completion.
type WheelEventSnap struct {
	Slot  uint32
	ID    uint64
	Token uint16
	Kind  uint8
}

// CoreSnap is a deep copy of the core's mutable state.
type CoreSnap struct {
	FetchIdx    int
	FetchHoldBy uint64
	FetchFreeAt uint64

	Now    uint64
	NextID uint64

	ROB     []ROBEntrySnap
	ROBHead int64
	ROBTail int64

	LQ     []LQEntrySnap
	LQHead int64
	LQTail int64
	SB     []SBEntrySnap
	SBHead int64
	SBTail int64
	AQ     []AQEntrySnap
	AQHead int64
	AQTail int64

	Rename []DepRef

	ReadyQ       []DepRef
	StoreBlocked []DepRef
	FenceBlocked []DepRef
	LockWait     []DepRef
	FenceIDs     []uint64

	Wheel [][]WheelEventSnap

	BP predictor.BranchSnap
	SS predictor.StoreSetSnap
	CP *predictor.ContentionSnap // nil unless policy RoW

	L1I         sram.Snap
	L1ILastLine uint64
	L1IMisses   uint64

	MemPortsUsed int
	DrainBusy    bool
	Work         uint64
	Done         bool
	FinishedAt   uint64

	Stats Stats
}

// snapDepList walks the dependency list of the producer in slot.
func (c *Core) snapDepList(slot uint32) []DepRef {
	var out []DepRef
	for n := c.cold[slot].depHead; n != 0; n = *c.depLink(n) {
		out = append(out, DepRef{Slot: n.slot(), ID: c.rob[n.slot()].id})
	}
	return out
}

// restoreDepLists relinks the dependency lists from the snapshot's
// ROB, once every slot holds its restored entry. A ref whose slot does
// not hold that id is dropped: a snapshot taken before flushes cut the
// lists can name consumers flushed since, which wake never reached.
// Each consumer has a node per source, so one named in more than two
// refs cannot have come from a core.
func (c *Core) restoreDepLists(rob []ROBEntrySnap) {
	used := make([]uint8, len(c.rob))
	for p := range rob {
		for _, d := range rob[p].Deps {
			if int(d.Slot) >= len(c.rob) || !c.rob[d.Slot].valid || c.rob[d.Slot].id != d.ID {
				continue
			}
			if used[d.Slot] == 2 {
				panic(fmt.Sprintf("core: restoring a third dependence edge into instruction %d (slot %d)", d.ID, d.Slot))
			}
			c.linkDep(uint32(p), d.Slot, int(used[d.Slot]))
			used[d.Slot]++
		}
	}
}

func snapDeps(ds []depRef) []DepRef {
	out := make([]DepRef, 0, len(ds))
	for _, d := range ds {
		out = append(out, DepRef{Slot: d.slot, ID: d.id})
	}
	return out
}

// restoreDeps refills the wait list dst, keeping its storage.
func restoreDeps(dst []depRef, ds []DepRef) []depRef {
	dst = dst[:0]
	for _, d := range ds {
		dst = append(dst, depRef{slot: d.Slot, id: d.ID})
	}
	return dst
}

// Snapshot captures the core's full pipeline state. It returns a
// pointer so the ~900-byte snapshot is built once and handed around by
// reference (the duffcopy of passing it by value showed up in profiles).
func (c *Core) Snapshot() *CoreSnap {
	s := &CoreSnap{
		FetchIdx:     c.fetchIdx,
		FetchHoldBy:  c.fetchHoldBy,
		FetchFreeAt:  c.fetchFreeAt,
		Now:          c.now,
		NextID:       c.nextID,
		ROBHead:      c.robHead,
		ROBTail:      c.robTail,
		LQHead:       c.lqHead,
		LQTail:       c.lqTail,
		SBHead:       c.sbHead,
		SBTail:       c.sbTail,
		AQHead:       c.aqHead,
		AQTail:       c.aqTail,
		ReadyQ:       snapDeps(c.readyQ),
		StoreBlocked: snapDeps(c.storeBlocked),
		FenceBlocked: snapDeps(c.fenceBlocked),
		LockWait:     snapDeps(c.lockWait),
		FenceIDs:     append([]uint64(nil), c.fenceIDs...),
		BP:           c.bp.Snapshot(),
		SS:           c.ss.Snapshot(),
		L1I:          c.l1i.Snapshot(),
		L1ILastLine:  c.l1iLastLine,
		L1IMisses:    c.l1iMisses,
		MemPortsUsed: c.memPortsUsed,
		DrainBusy:    c.drainBusy,
		Work:         c.work,
		Done:         c.done,
		FinishedAt:   c.finishedAt,
		Stats:        c.Stats,
	}
	s.Stats.LockHold = c.Stats.LockHold.Clone()
	if c.cp != nil {
		cp := c.cp.Snapshot()
		s.CP = &cp
	}
	s.Rename = make([]DepRef, trace.NumRegs)
	for i, r := range c.rename {
		s.Rename[i] = DepRef{Slot: r.slot, ID: r.id}
	}
	s.ROB = make([]ROBEntrySnap, len(c.rob))
	for i := range c.rob {
		e, cold := &c.rob[i], &c.cold[i]
		pi := int32(-1)
		if e.in != nil {
			pi = e.pi
		}
		s.ROB[i] = ROBEntrySnap{
			Valid: e.valid, ID: e.id, Pi: pi, St: uint8(e.st),
			SrcPending: e.srcPending, Token: e.token, Deps: c.snapDepList(uint32(i)),
			DispatchAt: cold.dispatchAt, CompleteAt: cold.completeAt,
			Line: e.line, AddrReady: e.addrReady, LQ: e.lq, SB: e.sb, AQ: e.aq,
			WaitStoreID: cold.waitStoreID, Mispred: e.mispred, ValueReady: e.valueReady,
			Lazy: e.lazy, PredContended: e.predContended, AddrCalcDone: e.addrCalcDone,
			LockIssueAt: cold.lockIssueAt,
		}
	}
	s.LQ = make([]LQEntrySnap, len(c.lq))
	for i, e := range c.lq {
		s.LQ[i] = LQEntrySnap{ID: e.id, Slot: e.slot, Line: e.line, HasLine: e.hasLine, IsAtomic: e.isAtomic, Done: e.done}
	}
	s.SB = make([]SBEntrySnap, len(c.sb))
	for i, e := range c.sb {
		s.SB[i] = SBEntrySnap{ID: e.id, Slot: e.slot, Line: e.line, AddrReady: e.addrReady, Committed: e.committed, IsAtomic: e.isAtomic}
	}
	s.AQ = make([]AQEntrySnap, len(c.aq))
	for i, e := range c.aq {
		s.AQ[i] = AQEntrySnap{
			ID: e.id, Slot: e.slot, PC: e.pc, Line: e.line, HasAddr: e.hasAddr,
			Locked: e.locked, Contended: e.contended, LockAt: e.lockAt,
			PredContended: e.predContended, Trainable: e.trainable,
		}
	}
	s.Wheel = make([][]WheelEventSnap, slab.WheelSize)
	for b := range s.Wheel {
		for _, ev := range c.wheel.Bucket(uint64(b)) {
			s.Wheel[b] = append(s.Wheel[b], WheelEventSnap{Slot: ev.slot, ID: ev.id, Token: ev.token, Kind: ev.kind})
		}
	}
	return s
}

// Restore rewinds the core to a previously captured CoreSnap. The core
// must have been built by core.New with the same configuration and the
// same (regenerated) program — instruction pointers are rebound to
// prog by the serialized program indexes.
func (c *Core) Restore(s *CoreSnap) {
	if len(s.ROB) != len(c.rob) || len(s.LQ) != len(c.lq) || len(s.SB) != len(c.sb) || len(s.AQ) != len(c.aq) || len(s.Wheel) != slab.WheelSize {
		panic(fmt.Sprintf("core: restoring snapshot with rings rob=%d lq=%d sb=%d aq=%d wheel=%d into core with rob=%d lq=%d sb=%d aq=%d wheel=%d",
			len(s.ROB), len(s.LQ), len(s.SB), len(s.AQ), len(s.Wheel), len(c.rob), len(c.lq), len(c.sb), len(c.aq), slab.WheelSize))
	}
	c.fetchIdx = s.FetchIdx
	c.fetchHoldBy = s.FetchHoldBy
	c.fetchFreeAt = s.FetchFreeAt
	c.now = s.Now
	c.nextID = s.NextID
	c.robHead, c.robTail = s.ROBHead, s.ROBTail
	c.lqHead, c.lqTail = s.LQHead, s.LQTail
	c.sbHead, c.sbTail = s.SBHead, s.SBTail
	c.aqHead, c.aqTail = s.AQHead, s.AQTail
	for i := range c.rename {
		c.rename[i] = depRef{slot: s.Rename[i].Slot, id: s.Rename[i].ID}
	}
	c.readyQ = restoreDeps(c.readyQ, s.ReadyQ)
	c.storeBlocked = restoreDeps(c.storeBlocked, s.StoreBlocked)
	c.fenceBlocked = restoreDeps(c.fenceBlocked, s.FenceBlocked)
	c.lockWait = restoreDeps(c.lockWait, s.LockWait)
	c.fenceIDs = append(c.fenceIDs[:0], s.FenceIDs...)
	c.bp.Restore(s.BP)
	c.ss.Restore(s.SS)
	if c.cp != nil && s.CP != nil {
		c.cp.Restore(*s.CP)
	}
	c.l1i.Restore(s.L1I)
	c.l1iLastLine = s.L1ILastLine
	c.l1iMisses = s.L1IMisses
	c.memPortsUsed = s.MemPortsUsed
	c.drainBusy = s.DrainBusy
	c.work = s.Work
	c.done = s.Done
	c.finishedAt = s.FinishedAt
	c.Stats = s.Stats
	c.Stats.LockHold = s.Stats.LockHold.Clone()

	for i := range c.rob {
		e := &s.ROB[i]
		var in *trace.Instr
		if e.Pi >= 0 && int(e.Pi) < len(c.prog) {
			in = &c.prog[e.Pi]
		}
		c.rob[i] = robEntry{
			valid: e.Valid, id: e.ID, pi: e.Pi, in: in, st: state(e.St),
			srcPending: e.SrcPending, token: e.Token,
			line: e.Line, addrReady: e.AddrReady, lq: e.LQ, sb: e.SB, aq: e.AQ,
			mispred: e.Mispred, valueReady: e.ValueReady,
			lazy: e.Lazy, predContended: e.PredContended, addrCalcDone: e.AddrCalcDone,
		}
		c.cold[i] = robCold{
			waitStoreID: e.WaitStoreID,
			dispatchAt:  e.DispatchAt, completeAt: e.CompleteAt, lockIssueAt: e.LockIssueAt,
		}
	}
	c.restoreDepLists(s.ROB)
	for i, e := range s.LQ {
		c.lq[i] = lqEntry{id: e.ID, slot: e.Slot, line: e.Line, hasLine: e.HasLine, isAtomic: e.IsAtomic, done: e.Done}
	}
	for i, e := range s.SB {
		c.sb[i] = sbEntry{id: e.ID, slot: e.Slot, line: e.Line, addrReady: e.AddrReady, committed: e.Committed, isAtomic: e.IsAtomic}
	}
	for i, e := range s.AQ {
		c.aq[i] = aqEntry{
			id: e.ID, slot: e.Slot, pc: e.PC, line: e.Line, hasAddr: e.HasAddr,
			locked: e.Locked, contended: e.Contended, lockAt: e.LockAt,
			predContended: e.PredContended, trainable: e.Trainable,
		}
	}
	// Every queued completion is due after now, within a wheel: bucket
	// b's is the first cycle past now that is b modulo WheelSize.
	c.wheel.Reset()
	for b, evs := range s.Wheel {
		at := c.now + 1 + (uint64(b)-c.now-1)%slab.WheelSize
		for _, ev := range evs {
			c.wheel.Push(at, wheelEvent{slot: ev.Slot, id: ev.ID, token: ev.Token, kind: ev.Kind})
		}
	}
	c.lqF, c.sbF = c.countFilters()
}

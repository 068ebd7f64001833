// Package core implements the cycle-level out-of-order core: a
// 512-entry ROB with register renaming, load queue, store buffer and
// the Atomic Queue (AQ) of Free Atomics, plus the paper's Rush-or-Wait
// policy engine deciding when each atomic RMW issues. A locking
// atomic's state machine is one (state, event) table in lock.go, whose
// transitions Stats.Transitions counts.
//
// The core is trace-driven: it fetches pre-generated instructions from
// a trace.Program, but all timing — dependencies, structural hazards,
// cache locking, coherence stalls — is modeled cycle by cycle, so the
// contention between cores emerges from the multicore simulation
// rather than from the trace.
//
// These layouts keep a tick cheap without changing what it computes:
//
//   - Line filters. Three searches look for a same-line queue entry
//     and almost always find none: store-to-load forwarding (sbMatch,
//     resolved SB stores), the memory-order check of a resolving store
//     and the TSO squash on an invalidation (checkViolation and
//     LineInvalidated, performed plain loads in the LQ). Each queue
//     keeps a lineFilter, a count of such entries per line-number
//     bucket, and a search whose bucket is zero returns at once. Every
//     transition that enters or leaves the counted kind goes through
//     the helpers in filter.go; the filters are derived state, so
//     Restore recounts them and the run loop's cross-check compares
//     them with a recount after every core tick.
//   - Hot and cold ROB halves. A slot is a 64-byte robEntry holding what
//     every visit reads (id, instruction, state, queue positions,
//     flags) and a 64-byte robCold beside it holding the dependents
//     list, a load's store-set wait and the latency timestamps, which
//     only dispatch, completion, load address generation and the
//     statistics touch. A snapshot joins the two, so checkpoints keep
//     one ROBEntrySnap per slot.
//   - Dependency lists that never allocate (gem5 O3CPU's per-producer
//     list of waiting instructions). A µop has at most two sources, so
//     the consumer in slot s owns edge nodes 2s and 2s+1, one per
//     source. A producer's robCold keeps the head and tail of a list
//     through such nodes, appended at dispatch, so it holds its
//     consumers in dispatch order, and completion wakes them in that
//     order. Every node in a list belongs to a live consumer: flushFrom
//     cuts each surviving producer's list where the flushed consumers,
//     always its tail, begin, and empties the lists of the flushed
//     producers. Snapshots walk the lists into ROBEntrySnap.Deps, and
//     Restore relinks them.
//   - Waits read from the queues that hold them. A lazy atomic issues
//     at the LQ head, and a lock that per-core ordering deferred
//     retries at the oldest unlocked AQ entry, so neither keeps a list.
//     The execution wheel's buckets are FIFOs in one slab (package
//     slab), and the other wait lists share one array that New carves
//     up, so a run allocates only past a high-water mark.
package core

import (
	"fmt"
	"math/bits"

	"rowsim/internal/cache"
	"rowsim/internal/coherence"
	"rowsim/internal/config"
	"rowsim/internal/predictor"
	"rowsim/internal/slab"
	"rowsim/internal/sram"
	"rowsim/internal/stats"
	"rowsim/internal/trace"
)

// instruction lifecycle states.
type state uint8

const (
	sWaiting   state = iota // source operands pending
	sReady                  // in the ready queue
	sIssued                 // executing (ALU timer, AGU, or memory outstanding)
	sWaitStore              // load blocked behind an older store (store sets / unready forward)
	sWaitLazy               // atomic waiting for the lazy-issue conditions
	sWaitLock               // atomic waiting for an older same-line lock to release
	sWaitOrder              // atomic whose line arrived before an older atomic locked
	sCompleted              // executed; waiting to commit
)

// depRef names an in-flight instruction by ROB slot and dynamic id
// (the rename table and the wait queues).
type depRef struct {
	slot uint32
	id   uint64
}

// robEntry is the hot half of one in-flight instruction: the fields
// the pipeline reads on every visit, in one 64-byte cache line (pinned
// by TestROBEntrySize). The fields only dispatch, completion, load
// address generation and the statistics touch live in robCold, one per
// slot.
type robEntry struct {
	id         uint64 // unique dynamic id; never reused
	in         *trace.Instr
	pi         int32 // program index (for squash refetch)
	st         state
	srcPending int8
	token      uint16 // invalidates stale execution-wheel events

	line   uint64
	lq, sb int64 // absolute LQ/SB positions, -1 when not occupying
	aq     int64 // absolute AQ position, -1 when none

	valid     bool
	addrReady bool
	mispred   bool

	// valueReady marks the result available to dependents before the
	// instruction completes (store-to-atomic value forwarding).
	valueReady bool

	// Atomic execution state.
	lazy          bool // current policy (may flip eager via forwarding)
	predContended bool
	addrCalcDone  bool
}

// depNode is an edge node plus one, so that 0 is no node: node 2s+k is
// the k-th source operand of the consumer in slot s.
type depNode int32

func (n depNode) slot() uint32 { return uint32(n-1) >> 1 }

// robCold is the cold half of a ROB slot, also one cache line: the
// dependents to wake at completion, a load's store-set wait and the
// timestamps the latency statistics read.
type robCold struct {
	depHead, depTail depNode    // this slot's consumers, in dispatch order
	depNext          [2]depNode // the list links of this slot's own nodes
	_                [2]uint64  // pads the slot to 64 bytes

	waitStoreID uint64 // store-set: wait until this store resolves (0 = none)

	dispatchAt  uint64
	completeAt  uint64
	lockIssueAt uint64 // cycle the lock GetX was issued (14-bit semantics at use)
}

// sbEntry is one store-buffer slot (allocated at dispatch, drains in
// order after commit — TSO).
type sbEntry struct {
	id        uint64
	slot      uint32
	line      uint64
	addrReady bool
	committed bool
	isAtomic  bool
}

// lqEntry is one load-queue slot.
type lqEntry struct {
	id       uint64
	slot     uint32
	line     uint64
	hasLine  bool
	isAtomic bool
	done     bool // performed its read (squashable until commit)
}

// aqEntry is one Atomic Queue slot, augmented with the RoW fields:
// the contended bit and the only-calculate-address flag (implicit in
// hasAddr + the entry's lazy policy). The request's issue cycle is the
// ROB slot's lockIssueAt. Only lock.go changes locked.
type aqEntry struct {
	id        uint64
	slot      uint32
	pc        uint64
	line      uint64
	hasAddr   bool
	locked    bool
	contended bool
	lockAt    uint64 // cycle the line was locked

	predContended bool // prediction made at allocation (for training)
	trainable     bool // update the predictor at unlock
}

const (
	evALUDone uint8 = iota
	evLoadAGU
	evStoreAGU
	evAtomicAGU      // address-calculation pass for an atomic
	evAtomicOp       // the RMW ALU operation after the lock
	evForwarded      // store-to-load forward data delivery
	evAtomicRetry    // replay of a force-released lock acquisition
	evAtomicFwdValue // forwarded RMW result becomes visible to dependents
)

// wheelEvent is a scheduled completion inside the core.
type wheelEvent struct {
	slot  uint32
	id    uint64
	token uint16
	kind  uint8
}

// Tag encoding for memory responses: slot in the low bits, id above.
// config.Validate bounds ROBSize by the same constant.
const tagSlotBits = config.ROBSlotBits

// lineFilter counts a queue's entries of one kind per line bucket, the
// bucket being the low 8 bits of the line number (Core.bucket). A zero
// count proves that no such entry targets a line of that bucket.
type lineFilter [256]uint8

// A queue at config.MaxQueueSize must fit a filter counter.
const _ uint8 = config.MaxQueueSize

// Stats aggregates a core's behaviour for the experiment harnesses.
type Stats struct {
	Committed uint64
	Atomics   uint64 // committed locking atomics

	Transitions [NumTransitions]uint64 // the locking atomic's, by kind (lock.go)

	ContendedAtomics uint64 // contended bit set at unlock
	PredictedLazy    uint64
	Mispredicts      uint64
	Branches         uint64
	LQSquashes       uint64
	SSViolations     uint64
	LoadForwards     uint64

	// Fig. 6 latency breakdown (per locking atomic).
	DispatchToIssue stats.Mean
	IssueToLock     stats.Mean
	LockToUnlock    stats.Mean
	// LockHold is the lock-window distribution (tail behaviour shows
	// the convoying the paper's lazy mode avoids).
	LockHold *stats.Histogram

	// Fig. 4 instrumentation.
	OlderUnexecAtEager   stats.Mean // older instrs not yet executed when an eager atomic issues
	YoungerStartedAtLazy stats.Mean // younger instrs already executing when a lazy atomic issues
}

// Core is one simulated out-of-order core.
type Core struct {
	id  int
	cfg *config.Config

	prog        trace.Program
	fetchIdx    int
	fetchHoldBy uint64 // id of the mispredicted branch stalling fetch (0 = none)
	fetchFreeAt uint64 // front-end redirect bubble

	now    uint64
	nextID uint64

	rob     []robEntry
	cold    []robCold // per ROB slot, beside rob
	robHead int64     // absolute position of oldest entry
	robTail int64     // absolute position one past youngest
	robMask int64

	lq     []lqEntry
	lqHead int64
	lqTail int64
	sb     []sbEntry
	sbHead int64
	sbTail int64
	aq     []aqEntry
	aqHead int64
	aqTail int64

	lqF, sbF  lineFilter // derived from the LQ and SB windows (filter.go)
	lineShift uint8      // log2(line size): a line address >> lineShift is its line number

	rename [trace.NumRegs]depRef

	// The wait lists. New carves all but the fence lists from one
	// array (carveWaitLists); the fence lists, which only fenced traces
	// use, start empty.
	readyQ       []depRef
	storeBlocked []depRef // loads in sWaitStore
	fenceBlocked []depRef // memory ops stalled behind a fence
	lockWait     []depRef // atomics waiting for a same-line lock
	wakeBuf      []depRef // scratch for wakeLockWaiters
	fenceIDs     []uint64 // in-flight fences (and fenced atomics), ascending
	lockBuf      []uint64 // scratch for flushFrom's released locks, an AQ's worth

	wheel slab.Wheel[wheelEvent] // scheduled completions

	mem *cache.Private
	bp  *predictor.Branch
	ss  *predictor.StoreSet
	cp  *predictor.Contention

	// Instruction cache: fetch stalls on a miss while the line fills
	// from the private L2 (instructions are read-only, so the I-side
	// stays outside the coherence protocol).
	l1i         *sram.Array
	l1iLineMask uint64
	l1iLastLine uint64
	l1iMisses   uint64

	memPortsUsed int
	drainBusy    bool // SB drain write in flight

	// work counts observable Tick actions (retires, issues, drains,
	// dispatches, wheel events, wakes). The event scheduler's
	// cross-check replays a skipped Tick and asserts it unchanged.
	work uint64

	done       bool
	finishedAt uint64

	sink *coherence.ErrorSink

	Stats Stats
}

// New builds a core executing prog. The private cache is created by
// the caller (the system) and attached with AttachMemory, because it
// needs the network and bank mapping.
func New(id int, cfg *config.Config, prog trace.Program) *Core {
	c := &Core{
		id:          id,
		cfg:         cfg,
		prog:        prog,
		rob:         make([]robEntry, nextPow2(cfg.Core.ROBSize)),
		cold:        make([]robCold, nextPow2(cfg.Core.ROBSize)),
		lq:          make([]lqEntry, cfg.Core.LQSize),
		sb:          make([]sbEntry, cfg.Core.SBSize),
		aq:          make([]aqEntry, cfg.Core.AQSize),
		bp:          predictor.NewBranch(12),
		ss:          predictor.NewStoreSet(10),
		l1i:         sram.New(cfg.Mem.L1I.SizeBytes, cfg.Mem.L1I.Ways, cfg.Mem.LineBytes),
		l1iLineMask: ^uint64(cfg.Mem.LineBytes - 1),
		l1iLastLine: ^uint64(0),
		lineShift:   uint8(bits.TrailingZeros(uint(cfg.Mem.LineBytes))),
	}
	c.robMask = int64(len(c.rob) - 1)
	c.wheel.Reserve(2 * slab.WheelSize) // two events a bucket, which no rowperf workload passes
	c.carveWaitLists()
	c.lockBuf = make([]uint64, 0, cfg.Core.AQSize)
	c.Stats.LockHold = stats.NewHistogram(1 << 16)
	if cfg.Policy == config.PolicyRoW {
		c.cp = predictor.NewContention(cfg)
	}
	c.nextID = 1
	return c
}

// carveWaitLists gives each wait list but the fence lists its share of
// one array, so that a run appends to them without allocating. The
// lock waiters are live atomics, at most one per AQ entry, and the
// loads blocked on a store at most one per LQ entry, because flushFrom
// drops flushed refs from both; wakeBuf holds one pass's lock waiters.
// The ready queue gets twice the issue width, which is no bound: it
// keeps flushed refs until issue passes them, and when it outgrows its
// share append gives it an array of its own, its three-index cap
// keeping it off the next list's share.
func (c *Core) carveWaitLists() {
	ready, lq, aq := 2*c.cfg.Core.IssueWidth, c.cfg.Core.LQSize, c.cfg.Core.AQSize
	room := make([]depRef, ready+lq+2*aq)
	carve := func(n int) []depRef {
		s := room[:0:n]
		room = room[n:]
		return s
	}
	c.readyQ, c.storeBlocked = carve(ready), carve(lq)
	c.lockWait, c.wakeBuf = carve(aq), carve(aq)
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// AttachMemory wires the private cache hierarchy.
func (c *Core) AttachMemory(m *cache.Private) { c.mem = m }

// SetErrorSink wires the system-wide protocol-error sink. Without one,
// invariant violations panic (fail-fast for direct component tests).
func (c *Core) SetErrorSink(s *coherence.ErrorSink) { c.sink = s }

// fail raises a structured error for a broken core invariant. The
// pipeline state the error captures is what a postmortem needs: the
// ROB head, queue occupancies and the drain flags.
func (c *Core) fail(reason string) {
	coherence.Raise(c.sink, &coherence.ProtocolError{
		Cycle:     c.now,
		Component: fmt.Sprintf("core %d", c.id),
		Reason:    reason,
		State:     c.String(),
	})
}

// Mem returns the core's private cache (for stats).
func (c *Core) Mem() *cache.Private { return c.mem }

// ContentionPredictor returns the RoW predictor, or nil when the
// policy is not RoW.
func (c *Core) ContentionPredictor() *predictor.Contention { return c.cp }

// L1IMisses returns the number of instruction-cache misses.
func (c *Core) L1IMisses() uint64 { return c.l1iMisses }

// Done reports whether the core has committed its whole program and
// drained its buffers.
func (c *Core) Done() bool { return c.done }

// FinishedAt returns the cycle the core completed (valid once Done).
func (c *Core) FinishedAt() uint64 { return c.finishedAt }

func (c *Core) entry(pos int64) *robEntry { return &c.rob[pos&c.robMask] }

func (c *Core) slotOf(pos int64) uint32 { return uint32(pos & c.robMask) }

func (c *Core) robFull() bool { return c.robTail-c.robHead >= int64(c.cfg.Core.ROBSize) }

func (c *Core) entryBySlot(slot uint32, id uint64) *robEntry {
	e := &c.rob[slot]
	if !e.valid || e.id != id {
		return nil
	}
	return e
}

// posOfSlot reconstructs the absolute ROB position of a live slot.
func (c *Core) posOfSlot(slot uint32) int64 {
	base := c.robHead &^ c.robMask
	pos := base | int64(slot)
	if pos < c.robHead {
		pos += c.robMask + 1
	}
	return pos
}

func (c *Core) makeTag(slot uint32, id uint64) uint64 {
	return uint64(slot) | id<<tagSlotBits
}

func (c *Core) fromTag(tag uint64) (*robEntry, uint32) {
	slot := uint32(tag & (1<<tagSlotBits - 1))
	id := tag >> tagSlotBits
	return c.entryBySlot(slot, id), slot
}

func (c *Core) schedule(lat int, kind uint8, slot uint32, id uint64, token uint16) {
	if lat < 1 {
		lat = 1
	}
	if lat >= slab.WheelSize {
		c.fail(fmt.Sprintf("internal latency %d exceeds the %d-cycle execution wheel", lat, slab.WheelSize))
		lat = slab.WheelSize - 1
	}
	at := c.now + uint64(lat)
	if !c.wheel.Push(at, wheelEvent{slot: slot, id: id, token: token, kind: kind}) {
		c.fail(fmt.Sprintf("completion for cycle %d lands in an execution-wheel bucket that holds another cycle", at))
	}
}

func (c *Core) String() string {
	head := "empty"
	if c.robHead < c.robTail {
		e := c.entry(c.robHead)
		locked := e.aq >= 0 && c.aq[e.aq%int64(len(c.aq))].locked
		head = fmt.Sprintf("%s st=%d src=%d lq=%d/%d sb=%d/%d locked=%v lazy=%v",
			e.in, e.st, e.srcPending, e.lq, c.lqHead, e.sb, c.sbHead, locked, e.lazy)
	}
	sbh := "empty"
	if c.sbHead < c.sbTail {
		h := &c.sb[c.sbHead%int64(len(c.sb))]
		sbh = fmt.Sprintf("id=%d line=%#x committed=%v addrReady=%v atomic=%v",
			h.id, h.line, h.committed, h.addrReady, h.isAtomic)
	}
	return fmt.Sprintf("core%d{fetch=%d/%d rob=%d lq=%d sb=%d aq=%d drainBusy=%v done=%v head: %s | sbHead: %s}",
		c.id, c.fetchIdx, len(c.prog), c.robTail-c.robHead, c.lqTail-c.lqHead,
		c.sbTail-c.sbHead, c.aqTail-c.aqHead, c.drainBusy, c.done, head, sbh)
}

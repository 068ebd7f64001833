package core

import (
	"reflect"
	"testing"

	"rowsim/internal/cache"
	"rowsim/internal/coherence"
	"rowsim/internal/config"
	"rowsim/internal/trace"
)

// nullNet satisfies coherence.Network; white-box pipeline tests never
// need real transport (everything under test stays cache-resident).
type nullNet struct{}

func (nullNet) Send(coherence.Msg)              {}
func (nullNet) SendAfter(coherence.Msg, uint64) {}

// newWiredCore builds a core with a real private cache on a null
// network. Lines in warm are pre-installed in M state so memory
// operations hit locally and the pipeline can be observed in
// isolation.
func newWiredCore(t *testing.T, cfg *config.Config, prog trace.Program, warm []uint64) *Core {
	t.Helper()
	c := New(0, cfg, prog)
	pc := cache.NewPrivate(0, cfg, nullNet{}, c, func(uint64) int { return 1 })
	for _, line := range warm {
		pc.Warm(line, cache.StateM)
	}
	c.AttachMemory(pc)
	return c
}

func runCycles(c *Core, from, n uint64) {
	for cyc := from; cyc < from+n; cyc++ {
		c.Mem().Tick(cyc)
		c.Tick(cyc)
	}
}

func smallCoreCfg() *config.Config {
	cfg := config.Default()
	cfg.NumCores = 1
	return cfg
}

func TestDispatchStallsOnROBFull(t *testing.T) {
	cfg := smallCoreCfg()
	cfg.Core.ROBSize = 8
	// A long-latency head (cold load on a null network never
	// completes) blocks commit; dispatch must stop at ROB capacity.
	prog := trace.Program{{PC: 4, Kind: trace.Load, Dst: 1, Addr: 0x99990000, Size: 8}}
	for i := 0; i < 40; i++ {
		prog = append(prog, trace.Instr{PC: uint64(8 + 4*i), Kind: trace.IntOp, Dst: 2})
	}
	c := newWiredCore(t, cfg, prog, nil)
	runCycles(c, 1, 200)
	if got := c.robTail - c.robHead; got != 8 {
		t.Fatalf("ROB occupancy %d, want capacity 8", got)
	}
	if c.done {
		t.Fatal("core finished with an unsatisfiable load")
	}
}

func TestDispatchStallsOnAQFull(t *testing.T) {
	cfg := smallCoreCfg()
	cfg.Core.AQSize = 2
	var prog trace.Program
	for i := 0; i < 6; i++ {
		prog = append(prog, trace.Instr{
			PC: uint64(4 + 4*i), Kind: trace.Atomic, Dst: 1,
			Addr: 0x99990000, Size: 8, AtomicOp: trace.FAA, // never completes: null net
		})
	}
	c := newWiredCore(t, cfg, prog, nil)
	runCycles(c, 1, 100)
	if got := c.aqTail - c.aqHead; got != 2 {
		t.Fatalf("AQ occupancy %d, want capacity 2", got)
	}
}

func TestChainExecutesInOrder(t *testing.T) {
	cfg := smallCoreCfg()
	// r1 <- op; r2 <- op(r1); r3 <- op(r2): strict chain, one ALU
	// completion per cycle at best.
	prog := trace.Program{
		{PC: 4, Kind: trace.IntOp, Dst: 1},
		{PC: 8, Kind: trace.IntOp, Src1: 1, Dst: 2},
		{PC: 12, Kind: trace.IntOp, Src1: 2, Dst: 3},
	}
	c := newWiredCore(t, cfg, prog, nil)
	runCycles(c, 1, 50)
	if !c.done {
		t.Fatal("chain did not finish")
	}
	// Lower bound: dispatch (1) + three dependent 1-cycle ops.
	if c.finishedAt < 4 {
		t.Fatalf("finished at %d, impossibly fast for a 3-deep chain", c.finishedAt)
	}
}

func TestStoreThenLoadForwardsLocally(t *testing.T) {
	cfg := smallCoreCfg()
	prog := trace.Program{
		{PC: 4, Kind: trace.Store, Src1: 1, Addr: 0x40000100, Size: 8},
		{PC: 8, Kind: trace.Load, Dst: 2, Addr: 0x40000100, Size: 8},
	}
	c := newWiredCore(t, cfg, prog, []uint64{0x40000100 &^ 63})
	runCycles(c, 1, 100)
	if !c.done {
		t.Fatal("did not finish")
	}
	if c.Stats.LoadForwards != 1 {
		t.Fatalf("forwards = %d, want 1", c.Stats.LoadForwards)
	}
}

func TestFlushFromRollsBackRings(t *testing.T) {
	cfg := smallCoreCfg()
	var prog trace.Program
	lines := []uint64{}
	for i := 0; i < 12; i++ {
		addr := uint64(0x40000000 + i*64)
		lines = append(lines, addr)
		prog = append(prog,
			trace.Instr{PC: uint64(4 + 16*i), Kind: trace.Load, Dst: 1, Addr: addr, Size: 8},
			trace.Instr{PC: uint64(8 + 16*i), Kind: trace.Store, Src1: 1, Addr: addr, Size: 8},
			trace.Instr{PC: uint64(12 + 16*i), Kind: trace.Atomic, Dst: 2, Addr: addr, Size: 8, AtomicOp: trace.FAA},
		)
	}
	c := newWiredCore(t, cfg, prog, lines)
	// Run just past the initial I-cache fill so a window is in
	// flight, then flush from the middle of the ROB.
	runCycles(c, 1, 16)
	if c.robTail-c.robHead < 8 {
		t.Fatalf("window too small to test flush: %d", c.robTail-c.robHead)
	}
	cut := c.robHead + (c.robTail-c.robHead)/2
	cutEntry := c.entry(cut)
	wantFetch := int(cutEntry.pi)
	c.flushFrom(cut)
	if c.robTail != cut {
		t.Fatalf("robTail = %d, want %d", c.robTail, cut)
	}
	if c.fetchIdx != wantFetch {
		t.Fatalf("fetchIdx = %d, want %d", c.fetchIdx, wantFetch)
	}
	// Ring invariants: every surviving entry's LQ/SB/AQ positions are
	// below the rolled-back tails.
	for p := c.robHead; p < c.robTail; p++ {
		e := c.entry(p)
		if e.lq >= c.lqTail || e.sb >= c.sbTail || (e.aq >= 0 && e.aq >= c.aqTail) {
			t.Fatalf("entry %d references flushed queue slots", p)
		}
	}
	// The machine must still run to completion afterwards.
	runCycles(c, 17, 4000)
	if !c.done {
		t.Fatalf("core wedged after flush: %s", c)
	}
	if c.Stats.Committed != uint64(len(prog)) {
		t.Fatalf("committed %d, want %d", c.Stats.Committed, len(prog))
	}
}

func TestRenameRebuiltAfterFlush(t *testing.T) {
	cfg := smallCoreCfg()
	prog := trace.Program{
		{PC: 4, Kind: trace.IntMul, Dst: 7},          // slow producer
		{PC: 8, Kind: trace.IntOp, Src1: 7, Dst: 8},  // consumer
		{PC: 12, Kind: trace.IntOp, Dst: 7},          // re-writer (will be flushed)
		{PC: 16, Kind: trace.IntOp, Src1: 7, Dst: 9}, // consumer of re-writer
	}
	c := newWiredCore(t, cfg, prog, nil)
	runCycles(c, 1, 13) // first fetch pays the I-cache fill
	if c.robTail-c.robHead != 4 {
		t.Fatalf("dispatched %d", c.robTail-c.robHead)
	}
	// Flush the re-writer and its consumer; the rename table must
	// point back at the original producer of r7.
	c.flushFrom(c.robHead + 2)
	ref := c.rename[7]
	e := c.entryBySlot(ref.slot, ref.id)
	if e == nil || e.in.PC != 4 {
		t.Fatalf("rename[7] does not point at the surviving producer")
	}
	runCycles(c, 14, 2000)
	if !c.done {
		t.Fatal("did not finish after flush")
	}
}

// depIDs lists the ids on the producer's dependency list, in order.
func depIDs(c *Core, slot uint32) []uint64 {
	var ids []uint64
	for _, d := range c.snapDepList(slot) {
		ids = append(ids, d.ID)
	}
	return ids
}

// TestDepListsSurviveLQSquash: a consumer flushed by an LQ squash
// while its producer waits on a miss leaves that producer's list, and
// the consumer of another producer that takes its slot joins only that
// one's. Each producer then wakes exactly its live consumers, oldest
// first.
func TestDepListsSurviveLQSquash(t *testing.T) {
	const coldA, coldB, warmC = 0x99990000, 0x99991000, 0x40000100
	prog := trace.Program{
		{PC: 4, Kind: trace.Load, Dst: 1, Addr: coldA, Size: 8},  // P1: misses
		{PC: 8, Kind: trace.Load, Dst: 2, Addr: coldB, Size: 8},  // P2: misses
		{PC: 12, Kind: trace.IntOp, Src1: 1, Dst: 6},             // P1's
		{PC: 16, Kind: trace.IntOp, Src1: 2, Src2: 1, Dst: 7},    // P2's and P1's
		{PC: 20, Kind: trace.Load, Dst: 3, Addr: warmC, Size: 8}, // performs, then is squashed
		{PC: 24, Kind: trace.IntOp, Src1: 1, Dst: 5},             // P1's, flushed
		{PC: 28, Kind: trace.IntOp, Src1: 2, Dst: 8},             // P2's, flushed
	}
	c := newWiredCore(t, smallCoreCfg(), prog, []uint64{warmC &^ 63})
	runCycles(c, 1, 40)
	if c.robTail-c.robHead != 7 || !c.lq[(c.lqHead+2)%int64(len(c.lq))].done {
		t.Fatalf("window not set up: %s", c)
	}
	slot := func(k int64) uint32 { return c.slotOf(c.robHead + k) }
	id := func(k int64) uint64 { return c.entry(c.robHead + k).id }
	p1, p2 := slot(0), slot(1)

	c.LineInvalidated(warmC &^ 63)
	if c.Stats.LQSquashes != 1 || c.robTail != c.robHead+4 {
		t.Fatalf("squash did not flush from the load: %d squashes, %s", c.Stats.LQSquashes, c)
	}
	if got, want := depIDs(c, p1), []uint64{id(2), id(3)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("P1's list after the squash = %v, want %v", got, want)
	}
	// Fill the freed slots: the flushed P1 consumer's with a consumer of
	// P2, the flushed P2 consumer's with one of P1.
	for _, in := range []trace.Instr{
		{PC: 100, Kind: trace.IntOp, Dst: 9},
		{PC: 104, Kind: trace.IntOp, Src1: 2, Dst: 10},
		{PC: 108, Kind: trace.IntOp, Src1: 1, Dst: 11},
	} {
		c.dispatchOne(&in)
	}
	if got, want := depIDs(c, p1), []uint64{id(2), id(3), id(6)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("P1's list = %v, want %v", got, want)
	}
	if got, want := depIDs(c, p2), []uint64{id(3), id(5)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("P2's list = %v, want %v", got, want)
	}

	// Each fill wakes the consumers left with no pending source.
	woken := func(p uint32, pid uint64) []uint64 {
		n := len(c.readyQ)
		c.MemResp(c.makeTag(p, pid), cache.RespInfo{})
		var ids []uint64
		for _, r := range c.readyQ[n:] {
			ids = append(ids, r.id)
		}
		return ids
	}
	if got, want := woken(p1, id(0)), []uint64{id(2), id(6)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("P1's fill readied %v, want %v", got, want)
	}
	if got, want := woken(p2, id(1)), []uint64{id(3), id(5)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("P2's fill readied %v, want %v", got, want)
	}
	for k := int64(2); k < c.robTail-c.robHead; k++ {
		if e := c.entry(c.robHead + k); e.srcPending != 0 {
			t.Fatalf("entry %d still waits on %d sources", k, e.srcPending)
		}
	}
}

// TestDepListsFirstFillAllocs: dispatching and waking through every
// slot of a fresh ROB allocates nothing, each consumer linking both its
// sources. The warm-step allocation tests start after the first fill.
func TestDepListsFirstFillAllocs(t *testing.T) {
	cfg := smallCoreCfg()
	prog := make(trace.Program, cfg.Core.ROBSize)
	for i := range prog {
		prog[i] = trace.Instr{PC: uint64(4 * i), Kind: trace.IntOp, Src1: 1, Src2: 1, Dst: 1}
	}
	const runs = 3
	var cores []*Core
	for i := 0; i < 2*runs; i++ { // AllocsPerRun runs the window once more to warm up
		c := New(0, cfg, prog)
		c.readyQ = make([]depRef, 0, len(prog))
		cores = append(cores, c)
	}
	// The three fills are one run, counted whole.
	allocs := testing.AllocsPerRun(1, func() {
		for range runs {
			c := cores[0]
			cores = cores[1:]
			for c.fetchIdx < len(prog) {
				c.dispatchOne(&prog[c.fetchIdx])
				c.fetchIdx++
			}
			for p := c.robHead; p < c.robTail; p++ {
				c.complete(c.entry(p), c.slotOf(p))
			}
			if len(c.readyQ) != len(prog) {
				panic("a chained instruction was never readied")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%d first fills allocate %v times; want 0", runs, allocs)
	}
}

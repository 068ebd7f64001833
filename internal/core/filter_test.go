package core

import (
	"testing"
	"unsafe"

	"rowsim/internal/trace"
)

// TestROBEntrySize: the fields every visit reads fill one 64-byte
// cache line, and the rest of a slot, in robCold, another.
func TestROBEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(robEntry{}); got != 64 {
		t.Fatalf("robEntry is %d bytes, want 64", got)
	}
	if got := unsafe.Sizeof(robCold{}); got != 64 {
		t.Fatalf("robCold is %d bytes, want 64", got)
	}
}

// filterProg is a window the filters see filled: a cold load that never
// completes on the null network holds the ROB head, and behind it
// loads, stores and atomics to warm lines perform and resolve.
func filterProg() (trace.Program, []uint64) {
	prog := trace.Program{{PC: 4, Kind: trace.Load, Dst: 3, Addr: 0x99990000, Size: 8}}
	var lines []uint64
	for i := 0; i < 12; i++ {
		addr := uint64(0x40000000 + i*64)
		lines = append(lines, addr)
		prog = append(prog,
			trace.Instr{PC: uint64(8 + 16*i), Kind: trace.Load, Dst: 1, Addr: addr, Size: 8},
			trace.Instr{PC: uint64(12 + 16*i), Kind: trace.Store, Src1: 1, Addr: addr, Size: 8},
			trace.Instr{PC: uint64(16 + 16*i), Kind: trace.Atomic, Dst: 2, Addr: addr, Size: 8, AtomicOp: trace.FAA},
		)
	}
	return prog, lines
}

// TestFiltersTrackQueues checks the filters against a recount after
// every cycle and every flush, and that the window did fill them.
func TestFiltersTrackQueues(t *testing.T) {
	prog, lines := filterProg()
	c := newWiredCore(t, smallCoreCfg(), prog, lines)
	for cyc := uint64(1); cyc <= 60; cyc++ {
		c.Mem().Tick(cyc)
		c.Tick(cyc)
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", cyc, err)
		}
	}
	if c.lqF == (lineFilter{}) || c.sbF == (lineFilter{}) {
		t.Fatalf("window left a filter empty: lq=%v sb=%v", c.lqF, c.sbF)
	}
	if c.sbMatch(^uint64(0), c.mem.Line(0x40000000), false) < 0 {
		t.Fatal("sbMatch misses a resolved store")
	}
	c.flushFrom(c.robHead + (c.robTail-c.robHead)/2)
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("after a flush: %v", err)
	}
	c.flushFrom(c.robHead + 1)
	if c.lqF != (lineFilter{}) || c.sbF != (lineFilter{}) {
		t.Fatalf("flush to the head left counts: lq=%v sb=%v", c.lqF, c.sbF)
	}
}

// TestFiltersRebuiltByRestore: a snapshot restored into a core that
// has run elsewhere recounts the filters from the restored queues.
func TestFiltersRebuiltByRestore(t *testing.T) {
	prog, lines := filterProg()
	cfg := smallCoreCfg()
	src := newWiredCore(t, cfg, prog, lines)
	runCycles(src, 1, 60)
	snap := src.Snapshot()

	used := newWiredCore(t, cfg, prog, lines)
	runCycles(used, 1, 14)
	if used.lqF == src.lqF && used.sbF == src.sbF {
		t.Fatal("the used core already holds the source's filters; the test proves nothing")
	}
	used.Restore(snap)
	if used.lqF != src.lqF || used.sbF != src.sbF {
		t.Fatalf("restored filters differ:\nlq %v\nwant %v\nsb %v\nwant %v", used.lqF, src.lqF, used.sbF, src.sbF)
	}
}

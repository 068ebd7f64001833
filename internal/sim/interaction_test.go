package sim

import (
	"testing"

	"rowsim/internal/config"
	"rowsim/internal/trace"
)

// TestMispredictsAroundAtomics: hard-to-predict branches interleaved
// with contended atomics — exercises front-end holds combined with
// lock replay machinery.
func TestMispredictsAroundAtomics(t *testing.T) {
	const hot = uint64(0x10000000)
	mk := func(seedish int) trace.Program {
		var p trace.Program
		for i := 0; i < 300; i++ {
			p = append(p,
				trace.Instr{PC: 0x400000, Kind: trace.IntOp, Dst: 1},
				trace.Instr{PC: 0x400004, Kind: trace.Branch, Src1: 1, Taken: (i*2654435761+seedish)&4 != 0},
				trace.Instr{PC: 0x400008, Kind: trace.Atomic, Dst: 2, Addr: hot, Size: 8, AtomicOp: trace.FAA},
			)
		}
		return p
	}
	for _, pol := range []config.AtomicPolicy{config.PolicyEager, config.PolicyLazy} {
		cfg := smallCfg(4)
		cfg.Policy = pol
		cfg.MaxCycles = 50_000_000
		r, _ := buildAndRun(t, cfg, []trace.Program{mk(0), mk(1), mk(2), mk(3)})
		if r.Committed != 4*900 {
			t.Fatalf("policy %v: committed %d", pol, r.Committed)
		}
		if r.Mispredicts == 0 {
			t.Fatalf("policy %v: no mispredicts on a random pattern", pol)
		}
	}
}

// TestFencesBetweenAtomics: explicit fences interleaved with locking
// atomics (both use the fence bookkeeping) must retire in order.
func TestFencesBetweenAtomics(t *testing.T) {
	var p trace.Program
	for i := 0; i < 100; i++ {
		p = append(p,
			trace.Instr{PC: 0x400000, Kind: trace.Atomic, Dst: 1, Addr: uint64(0x40000000 + i*64), Size: 8, AtomicOp: trace.FAA},
			trace.Instr{PC: 0x400004, Kind: trace.Fence},
			trace.Instr{PC: 0x400008, Kind: trace.Load, Dst: 2, Addr: uint64(0x40010000 + i*64), Size: 8},
		)
	}
	r, _ := buildAndRun(t, smallCfg(1), []trace.Program{p})
	if r.Committed != 300 {
		t.Fatalf("committed %d", r.Committed)
	}
	if r.Atomics != 100 {
		t.Fatalf("atomics %d", r.Atomics)
	}
}

// TestFencedAtomicsMultiCore: the Fig. 2 "old x86" mode on a
// contended multicore still completes and serializes.
func TestFencedAtomicsMultiCore(t *testing.T) {
	const hot = uint64(0x10000000)
	cfg := smallCfg(4)
	cfg.Core.FencedAtomics = true
	cfg.MaxCycles = 50_000_000
	progs := []trace.Program{
		atomicProgram(80, hot, trace.FAA), atomicProgram(80, hot, trace.FAA),
		atomicProgram(80, hot, trace.FAA), atomicProgram(80, hot, trace.FAA),
	}
	r, _ := buildAndRun(t, cfg, progs)
	if r.Atomics != 320 {
		t.Fatalf("atomics %d", r.Atomics)
	}
}

// TestStoreHeavyDrain: SB-capacity pressure — more in-flight stores
// than SB entries, mixed lines, multicore invalidation traffic.
func TestStoreHeavyDrain(t *testing.T) {
	shared := uint64(0x18000000)
	mk := func(core int) trace.Program {
		var p trace.Program
		for i := 0; i < 1500; i++ {
			addr := shared + uint64((i*7+core)%64)*64
			p = append(p, trace.Instr{PC: uint64(0x400000 + 4*(i%32)), Kind: trace.Store, Src1: 1, Addr: addr, Size: 8})
		}
		return p
	}
	cfg := smallCfg(4)
	cfg.MaxCycles = 50_000_000
	r, _ := buildAndRun(t, cfg, []trace.Program{mk(0), mk(1), mk(2), mk(3)})
	if r.Committed != 6000 {
		t.Fatalf("committed %d", r.Committed)
	}
}

// TestRoWWithEWDetectionEndToEnd: the weakest detector still runs the
// full predictor train/predict loop.
func TestRoWWithEWDetectionEndToEnd(t *testing.T) {
	cfg := config.Default()
	cfg.NumCores = 4
	cfg.Policy = config.PolicyRoW
	cfg.RoW.Detection = config.DetectEW
	cfg.MaxCycles = 50_000_000
	const hot = uint64(0x10000000)
	progs := []trace.Program{
		atomicProgram(100, hot, trace.FAA), atomicProgram(100, hot, trace.FAA),
		atomicProgram(100, hot, trace.FAA), atomicProgram(100, hot, trace.FAA),
	}
	s, err := New(cfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Atomics != 400 {
		t.Fatalf("atomics %d", r.Atomics)
	}
}

// TestSingleInstructionProgram: degenerate sizes.
func TestSingleInstructionProgram(t *testing.T) {
	for _, in := range []trace.Instr{
		{PC: 4, Kind: trace.IntOp, Dst: 1},
		{PC: 4, Kind: trace.Load, Dst: 1, Addr: 0x40000000, Size: 8},
		{PC: 4, Kind: trace.Store, Src1: 1, Addr: 0x40000000, Size: 8},
		{PC: 4, Kind: trace.Atomic, Dst: 1, Addr: 0x40000000, Size: 8, AtomicOp: trace.FAA},
		{PC: 4, Kind: trace.Fence},
		{PC: 4, Kind: trace.Branch, Taken: true},
	} {
		r, _ := buildAndRun(t, smallCfg(1), []trace.Program{{in}})
		if r.Committed != 1 {
			t.Fatalf("%v: committed %d", in.Kind, r.Committed)
		}
	}
}

// TestEmptyProgram: a core with nothing to do finishes immediately.
func TestEmptyProgram(t *testing.T) {
	r, _ := buildAndRun(t, smallCfg(1), []trace.Program{{}})
	if r.Committed != 0 {
		t.Fatalf("committed %d", r.Committed)
	}
}

package sim

import (
	"testing"

	"rowsim/internal/config"
	"rowsim/internal/trace"
)

// TestPlainRMWDoesNotLock: atomics without the lock prefix (except
// SWAP) never allocate AQ entries or stall external requests.
func TestPlainRMWDoesNotLock(t *testing.T) {
	var p trace.Program
	for i := 0; i < 40; i++ {
		p = append(p, trace.Instr{
			PC: uint64(0x400000 + 4*i), Kind: trace.Atomic, Dst: 1,
			Addr: 0x40000000, Size: 8, AtomicOp: trace.FAA, NoLockPrefix: true,
		})
	}
	r, s := buildAndRun(t, smallCfg(1), []trace.Program{p})
	// Plain RMWs are not counted as (locking) atomics.
	if r.Atomics != 0 {
		t.Fatalf("plain RMWs counted as atomics: %d", r.Atomics)
	}
	if r.Committed != 40 {
		t.Fatalf("committed %d", r.Committed)
	}
	if got := s.Caches()[0].Stats.ExtStalls.Value(); got != 0 {
		t.Fatalf("plain RMW stalled external requests: %d", got)
	}
}

// TestSwapLocksWithoutPrefix: xchgl locks regardless of the prefix.
func TestSwapLocksWithoutPrefix(t *testing.T) {
	var p trace.Program
	for i := 0; i < 20; i++ {
		p = append(p, trace.Instr{
			PC: uint64(0x400000 + 4*i), Kind: trace.Atomic, Dst: 1,
			Addr: 0x40000000, Size: 8, AtomicOp: trace.SWAP, NoLockPrefix: true,
		})
	}
	r, _ := buildAndRun(t, smallCfg(1), []trace.Program{p})
	if r.Atomics != 20 {
		t.Fatalf("SWAP without prefix not treated as locking: %d", r.Atomics)
	}
}

// TestLazyDetectionNeedsWiderWindow: under the lazy policy, the
// execution-window detector (EW) sees almost no contention — the
// paper's Fig. 7b argument — while the directory detector still does.
func TestLazyDetectionNeedsWiderWindow(t *testing.T) {
	const hot = uint64(0x10000000)
	mk := func() trace.Program {
		return atomicProgram(150, hot, trace.FAA)
	}
	run := func(det config.Detection) Result {
		cfg := config.Default()
		cfg.NumCores = 4
		cfg.Policy = config.PolicyLazy
		cfg.RoW.Detection = det
		cfg.MaxCycles = 20_000_000
		progs := []trace.Program{mk(), mk(), mk(), mk()}
		s, err := New(cfg, progs)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	ew := run(config.DetectEW)
	dir := run(config.DetectRWDir)
	if ew.ContendedFrac >= dir.ContendedFrac {
		t.Fatalf("EW (%.2f) should detect less than RW+Dir (%.2f) under lazy",
			ew.ContendedFrac, dir.ContendedFrac)
	}
	if dir.ContendedFrac < 0.2 {
		t.Fatalf("RW+Dir detected only %.2f on a fully contended line", dir.ContendedFrac)
	}
}

// TestTimestampWraparound: with an artificially tiny timestamp width,
// long fills alias below the threshold and escape detection —
// footnote 4's hardware quirk, modeled faithfully.
func TestTimestampWraparound(t *testing.T) {
	const hot = uint64(0x10000000)
	run := func(bits int) Result {
		cfg := config.Default()
		cfg.NumCores = 4
		cfg.Policy = config.PolicyEager
		cfg.RoW.TimestampBits = bits
		cfg.MaxCycles = 20_000_000
		progs := []trace.Program{
			atomicProgram(120, hot, trace.FAA), atomicProgram(120, hot, trace.FAA),
			atomicProgram(120, hot, trace.FAA), atomicProgram(120, hot, trace.FAA),
		}
		s, err := New(cfg, progs)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	full := run(14)
	// 6-bit timestamps wrap at 64 cycles: every long contended fill
	// aliases to [0,64) and the >400 check never fires, so detection
	// falls back to the in-window (EW/RW) mechanisms only.
	tiny := run(6)
	if tiny.ContendedFrac > full.ContendedFrac {
		t.Fatalf("wrapped timestamps detected more (%.2f) than full ones (%.2f)",
			tiny.ContendedFrac, full.ContendedFrac)
	}
}

// TestCommitWaitsForSBDrain: an atomic cannot commit (and thus the
// run cannot finish) before older stores drained — checked indirectly
// by a store whose line is held remotely.
func TestCommitWaitsForSBDrain(t *testing.T) {
	// Core 0: store to X, then atomic on Y. Core 1 hammers X with
	// atomics (keeping it locked often). The run must still finish,
	// and core 0's atomic can only have committed after its older
	// store drained (enforced structurally; this guards regressions
	// that would let the atomic commit early and deadlock the SB).
	const x, y = uint64(0x10000000), uint64(0x10000040)
	var p0 trace.Program
	for i := 0; i < 60; i++ {
		p0 = append(p0,
			trace.Instr{PC: 0x400000, Kind: trace.Store, Src1: 1, Addr: x, Size: 8},
			trace.Instr{PC: 0x400004, Kind: trace.Atomic, Dst: 2, Addr: y, Size: 8, AtomicOp: trace.FAA},
		)
	}
	p1 := atomicProgram(120, x, trace.FAA)
	r, _ := buildAndRun(t, smallCfg(2), []trace.Program{p0, p1})
	if r.Committed != uint64(len(p0)+len(p1)) {
		t.Fatalf("committed %d", r.Committed)
	}
}

// TestLockHoldTailReported: the p99 lock-hold metric is populated for
// runs with locking atomics.
func TestLockHoldTailReported(t *testing.T) {
	r, _ := buildAndRun(t, smallCfg(1), []trace.Program{atomicProgram(50, 0x40000000, trace.FAA)})
	if r.LockHoldP99 <= 0 {
		t.Fatal("lock-hold tail not measured")
	}
}

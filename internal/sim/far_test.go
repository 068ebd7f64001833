package sim

import (
	"testing"

	"rowsim/internal/config"
	"rowsim/internal/core"
	"rowsim/internal/trace"
)

func farCfg(cores int) *config.Config {
	cfg := config.Default()
	cfg.NumCores = cores
	cfg.Policy = config.PolicyFar
	cfg.MaxCycles = 20_000_000
	return cfg
}

func TestFarAtomicsComplete(t *testing.T) {
	r, s := buildAndRun(t, farCfg(1), []trace.Program{atomicProgram(50, 0x40000000, trace.FAA)})
	if r.Atomics != 50 {
		t.Fatalf("atomics = %d, want 50", r.Atomics)
	}
	var far uint64
	for _, c := range s.Cores() {
		far += c.Stats.Transitions[core.FarIssue]
	}
	if far != 50 {
		t.Fatalf("far-issued = %d, want 50", far)
	}
	var bankOps uint64
	for _, d := range s.Directories() {
		bankOps += d.Stats.FarOps.Value()
	}
	if bankOps != 50 {
		t.Fatalf("bank RMWs = %d, want 50", bankOps)
	}
}

func TestFarAtomicsNeverLock(t *testing.T) {
	const hot = uint64(0x10000000)
	progs := []trace.Program{
		atomicProgram(80, hot, trace.FAA),
		atomicProgram(80, hot, trace.FAA),
	}
	r, _ := buildAndRun(t, farCfg(2), progs)
	if r.Atomics != 160 {
		t.Fatalf("atomics = %d", r.Atomics)
	}
	// No cache locking: no external request ever stalls.
	if r.ExtStalls != 0 {
		t.Fatalf("far atomics stalled %d external requests", r.ExtStalls)
	}
	if r.LockToUnlock != 0 {
		t.Fatalf("far atomics held locks for %.0f cycles", r.LockToUnlock)
	}
}

func TestFarRecallsOwnedLine(t *testing.T) {
	// Core 1 owns the line via plain stores; core 0's far atomic must
	// recall it to the bank (a directory forward) and still complete.
	const line = uint64(0x10000040)
	p0 := atomicProgram(40, line, trace.FAA)
	var p1 trace.Program
	for i := 0; i < 80; i++ {
		p1 = append(p1,
			trace.Instr{PC: 0x400400, Kind: trace.Store, Src1: 1, Addr: line, Size: 8},
			trace.Instr{PC: 0x400404, Kind: trace.IntOp, Dst: 1},
		)
	}
	r, s := buildAndRun(t, farCfg(2), []trace.Program{p0, p1})
	if r.Committed != uint64(len(p0)+len(p1)) {
		t.Fatalf("committed %d", r.Committed)
	}
	var fwds uint64
	for _, d := range s.Directories() {
		fwds += d.Stats.Forwards.Value()
	}
	if fwds == 0 {
		t.Fatal("no recall forwards despite a private owner")
	}
}

func TestFarBeatsNearOnHeavyContention(t *testing.T) {
	// The far-vs-near crossover: on a single hammered line with many
	// cores, far execution (one bank-side op per atomic, no line
	// bouncing) beats eager near execution (lock hold + transfer per
	// atomic).
	// Each atomic sits behind a dependent multiply chain, so an eager
	// lock is held while the chain commits — the regime where keeping
	// the RMW at the bank avoids both the hold and the line bounce.
	const hot = uint64(0x10000000)
	mk := func(n int) []trace.Program {
		progs := make([]trace.Program, n)
		for i := range progs {
			var p trace.Program
			for j := 0; j < 60; j++ {
				for k := 0; k < 20; k++ {
					p = append(p, trace.Instr{PC: uint64(0x400000 + 4*k), Kind: trace.IntMul, Src1: 1, Dst: 1})
				}
				p = append(p, trace.Instr{PC: 0x4002f0, Kind: trace.Atomic, Dst: 2, Addr: hot, Size: 8, AtomicOp: trace.FAA})
			}
			progs[i] = p
		}
		return progs
	}
	cfg := smallCfg(8)
	cfg.MaxCycles = 20_000_000
	eager, _ := buildAndRun(t, cfg, mk(8))
	far, _ := buildAndRun(t, farCfg(8), mk(8))
	if far.Cycles >= eager.Cycles {
		t.Fatalf("far (%d) not faster than eager (%d) on a hammered line", far.Cycles, eager.Cycles)
	}
}

func TestFarPlainRMWStillNear(t *testing.T) {
	// Non-locking RMWs (no lock prefix) stay near even under
	// PolicyFar: they are ordinary load/op/store sequences.
	var p trace.Program
	for i := 0; i < 30; i++ {
		p = append(p, trace.Instr{
			PC: uint64(0x400000 + 4*i), Kind: trace.Atomic, Dst: 1,
			Addr: 0x40000000, Size: 8, AtomicOp: trace.FAA, NoLockPrefix: true,
		})
	}
	r, s := buildAndRun(t, farCfg(1), []trace.Program{p})
	if r.Committed != 30 {
		t.Fatalf("committed %d", r.Committed)
	}
	for _, d := range s.Directories() {
		if d.Stats.FarOps.Value() != 0 {
			t.Fatal("plain RMW executed at the bank")
		}
	}
}

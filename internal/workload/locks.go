package workload

import (
	"fmt"

	"rowsim/internal/trace"
)

// The paper's introduction motivates atomics as the building blocks
// of higher-level synchronization (locks, barriers). These generators
// emit the instruction patterns of three classic algorithms so the
// eager/lazy/RoW comparison can be read directly against them.
//
// Spin iteration counts are drawn per dynamic instance from the
// generator's PRNG (a static trace cannot adapt to simulated timing);
// the parameters are chosen so the traffic pattern — who hammers
// which line, how often, with what in between — matches the
// algorithm. Lock and barrier lines live in the hot region, so the
// contention machinery treats them like any other contended line.

// synthKind selects a structured generator instead of the statistical
// template.
type synthKind string

const (
	synthNone    synthKind = ""
	synthTAS     synthKind = "tas"     // test-and-set spinlock (SWAP)
	synthTicket  synthKind = "ticket"  // ticket lock (FAA + spin load)
	synthBarrier synthKind = "barrier" // sense-reversing barrier (FAA)
)

// emitTAS produces one lock/critical-section/unlock round of a
// test-and-set spinlock.
func (g *generator) emitTAS(prog trace.Program) trace.Program {
	p := g.t.p
	lock := g.hotAddr()
	// Acquire: SWAP until it returns 0. The number of failed attempts
	// grows with the configured contention.
	spins := g.rng.Geometric(p.SpinMean)
	for s := 0; s < spins; s++ {
		prog = append(prog,
			trace.Instr{PC: codeBase + 0, Kind: trace.Atomic, Dst: 1, Addr: lock, Size: 8, AtomicOp: trace.SWAP},
			trace.Instr{PC: codeBase + 4, Kind: trace.Branch, Src1: 1, Taken: s < spins-1},
		)
	}
	// Critical section: touch the protected shared data.
	for i := 0; i < p.CriticalLen; i++ {
		addr := g.sharedAddr()
		if i%3 == 1 {
			prog = append(prog, trace.Instr{PC: codeBase + 8 + uint64(4*i), Kind: trace.Store, Src1: 2, Addr: addr, Size: 8})
		} else {
			prog = append(prog, trace.Instr{PC: codeBase + 8 + uint64(4*i), Kind: trace.Load, Dst: 2, Addr: addr, Size: 8})
		}
	}
	// Release: plain store to the lock word.
	prog = append(prog, trace.Instr{PC: codeBase + 256, Kind: trace.Store, Src1: 1, Addr: lock, Size: 8})
	return g.emitLocalWork(prog, p.NonCriticalLen)
}

// lockPair returns the two cachelines of one lock/barrier object
// (e.g. ticket + now-serving). Objects are laid out at a two-line
// stride so no object's second line aliases another object's first —
// atomics must only ever target the first line, or a lock's spin
// target would be another lock's atomic target.
func (g *generator) lockPair() (uint64, uint64) {
	n := g.t.p.HotLines / 2
	if n < 1 {
		n = 1
	}
	base := uint64(hotBase) + uint64(g.rng.Intn(n))*2*lineBytes
	return base, base + lineBytes
}

// emitTicket produces one round of a ticket lock: one FAA grabs a
// ticket, then the waiter spins on plain loads of the now-serving
// word (no atomic hammering — the reason ticket locks scale better).
func (g *generator) emitTicket(prog trace.Program) trace.Program {
	p := g.t.p
	ticket, serving := g.lockPair()
	prog = append(prog, trace.Instr{PC: codeBase + 0, Kind: trace.Atomic, Dst: 1, Addr: ticket, Size: 8, AtomicOp: trace.FAA})
	spins := g.rng.Geometric(p.SpinMean)
	for s := 0; s < spins; s++ {
		prog = append(prog,
			trace.Instr{PC: codeBase + 4, Kind: trace.Load, Dst: 2, Addr: serving, Size: 8},
			trace.Instr{PC: codeBase + 8, Kind: trace.Branch, Src1: 2, Taken: s < spins-1},
		)
	}
	for i := 0; i < p.CriticalLen; i++ {
		addr := g.sharedAddr()
		if i%3 == 1 {
			prog = append(prog, trace.Instr{PC: codeBase + 12 + uint64(4*i), Kind: trace.Store, Src1: 2, Addr: addr, Size: 8})
		} else {
			prog = append(prog, trace.Instr{PC: codeBase + 12 + uint64(4*i), Kind: trace.Load, Dst: 2, Addr: addr, Size: 8})
		}
	}
	// Release: bump now-serving with a plain store.
	prog = append(prog, trace.Instr{PC: codeBase + 260, Kind: trace.Store, Src1: 2, Addr: serving, Size: 8})
	return g.emitLocalWork(prog, p.NonCriticalLen)
}

// emitBarrier produces one work-phase + barrier round: local work,
// one FAA on the arrival counter, then spin loads on the generation
// word until the last arriver flips it.
func (g *generator) emitBarrier(prog trace.Program) trace.Program {
	p := g.t.p
	counter, gen := g.lockPair()
	prog = g.emitLocalWork(prog, p.NonCriticalLen)
	prog = append(prog, trace.Instr{PC: codeBase + 0, Kind: trace.Atomic, Dst: 1, Addr: counter, Size: 8, AtomicOp: trace.FAA})
	spins := g.rng.Geometric(p.SpinMean)
	for s := 0; s < spins; s++ {
		prog = append(prog,
			trace.Instr{PC: codeBase + 4, Kind: trace.Load, Dst: 2, Addr: gen, Size: 8},
			trace.Instr{PC: codeBase + 8, Kind: trace.Branch, Src1: 2, Taken: s < spins-1},
		)
	}
	return prog
}

// emitLocalWork appends n instructions of private computation (the
// code between synchronization operations).
func (g *generator) emitLocalWork(prog trace.Program, n int) trace.Program {
	for i := 0; i < n; i++ {
		pc := codeBase + 0x1000 + uint64(4*(i%512))
		switch i % 5 {
		case 0:
			prog = append(prog, trace.Instr{PC: pc, Kind: trace.Load, Src1: g.pickAddrSrc(), Dst: g.allocLeafDst(), Addr: g.privateAddr(), Size: 8})
		case 1:
			prog = append(prog, trace.Instr{PC: pc, Kind: trace.Store, Src1: g.pickSrc(), Addr: g.privateAddr(), Size: 8})
		default:
			src2 := g.consumeLeaf()
			if src2 == 0 {
				src2 = g.maybeSrc()
			}
			prog = append(prog, trace.Instr{PC: pc, Kind: trace.IntOp, Src1: g.pickSrc(), Src2: src2, Dst: g.allocDst()})
		}
	}
	return prog
}

// generateSynth builds a structured synchronization trace.
func generateSynth(p Params, cores, instrs int, seed uint64) []trace.Program {
	var emit func(g *generator, prog trace.Program) trace.Program
	switch p.Synth {
	case synthTAS:
		emit = (*generator).emitTAS
	case synthTicket:
		emit = (*generator).emitTicket
	case synthBarrier:
		emit = (*generator).emitBarrier
	default:
		panic(fmt.Sprintf("workload: unknown synthetic kind %q", p.Synth))
	}
	t := &template{p: p}
	return generateCores(cores, func(c int) trace.Program {
		g := newGenerator(t, c, seed)
		prog := make(trace.Program, 0, instrs+instrs/8)
		for len(prog) < instrs {
			prog = emit(g, prog)
		}
		return prog
	})
}

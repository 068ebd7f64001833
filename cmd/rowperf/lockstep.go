package main

import (
	"fmt"
	"sort"
	"time"

	"rowsim/internal/cache"
	"rowsim/internal/coherence"
	"rowsim/internal/config"
	"rowsim/internal/core"
	"rowsim/internal/interconnect"
	"rowsim/internal/trace"
)

// lockstepOut is what the lock-step driver measured: the run loop's
// host time split by visit phase, the unit counts the per-unit costs
// divide by, and the three totals that must equal System.Run under
// SchedCycle on the same inputs.
type lockstepOut struct {
	cycles, committed, msgs uint64

	handled    uint64 // messages handled by the banks
	cacheTicks uint64
	coreTicks  uint64
	hops       float64 // summed over all messages

	mesh, banks, caches, cores time.Duration
	loop                       time.Duration // whole loop, brackets included
}

// lockstep is rowperf's own run loop. No public sim call exposes the
// split of System.Run by phase, so the driver assembles the same
// components with the same public constructors sim.New uses, warms
// them with the same public calls System.Warm makes, and then runs
// the reference phase order — mesh, banks, caches, cores — with one
// monotonic-clock bracket per phase per cycle. Caches are ticked
// every cycle: the driver uses none of the skip predicates, so it
// stays valid whichever of the simulator's two loops survives.
func lockstep(cfg *config.Config, progs []trace.Program, warmFilter func(core int, line uint64) bool) (lockstepOut, error) {
	if err := cfg.Validate(); err != nil {
		return lockstepOut{}, err
	}
	n, banks := cfg.NumCores, cfg.Mem.L3Banks
	lineShift := uint(0)
	for 1<<lineShift < cfg.Mem.LineBytes {
		lineShift++
	}
	bankOf := func(line uint64) int { return n + int((line>>lineShift)%uint64(banks)) }

	mesh := interconnect.NewMesh(n+banks, cfg.Mem.LinkCycles, cfg.Mem.RouterCycles, cfg.Mem.BaseCycles)
	sink := &coherence.ErrorSink{}
	pool := &coherence.MsgPool{}
	mesh.SetErrorSink(sink)
	mesh.SetMsgPool(pool)
	dirs := make([]*coherence.Directory, banks)
	for b := range dirs {
		d := coherence.NewDirectory(n+b, b, mesh,
			cfg.Mem.L3.SizeBytes, cfg.Mem.L3.Ways, cfg.Mem.LineBytes,
			cfg.Mem.L3.HitCycles, cfg.Mem.DRAMCycles)
		d.SetErrorSink(sink)
		d.SetMsgPool(pool)
		dirs[b] = d
	}
	cores := make([]*core.Core, n)
	caches := make([]*cache.Private, n)
	for i := 0; i < n; i++ {
		var prog trace.Program
		if i < len(progs) {
			prog = progs[i]
		}
		c := core.New(i, cfg, prog)
		pc := cache.NewPrivate(i, cfg, mesh, c, bankOf)
		c.AttachMemory(pc)
		c.SetErrorSink(sink)
		pc.SetErrorSink(sink)
		pc.SetMsgPool(pool)
		cores[i], caches[i] = c, pc
	}

	if cfg.WarmCaches {
		// System.Warm's pass: single-owner lines exclusive in the
		// owner's private cache, shared lines in the L3, installed in
		// line-address order.
		lineMask := ^uint64(cfg.Mem.LineBytes - 1)
		owner := make(map[uint64]int)
		for c, prog := range progs {
			for i := range prog {
				if in := &prog[i]; in.IsMem() {
					line := in.Addr & lineMask
					if prev, ok := owner[line]; !ok {
						owner[line] = c
					} else if prev != c {
						owner[line] = -1
					}
				}
			}
		}
		lines := make([]uint64, 0, len(owner))
		for line := range owner {
			lines = append(lines, line)
		}
		sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
		for _, line := range lines {
			c := owner[line]
			if warmFilter != nil && !warmFilter(c, line) {
				continue
			}
			bank := bankOf(line) - n
			if c >= 0 {
				dirs[bank].WarmOwned(line, c)
				caches[c].Warm(line, cache.StateE)
			} else {
				dirs[bank].WarmL3(line)
			}
		}
	}

	var out lockstepOut
	active := make([]*core.Core, 0, n)
	for _, c := range cores {
		if !c.Done() {
			active = append(active, c)
		}
	}
	var cyc uint64
	start := time.Now()
	for len(active) > 0 {
		cyc++
		t0 := time.Now()
		mesh.Tick(cyc)
		t1 := time.Now()
		for i, d := range dirs {
			if !mesh.HasMail(n + i) {
				continue
			}
			d.SetCycle(cyc)
			for _, m := range mesh.Drain(n + i) {
				d.Handle(m)
				out.handled++
			}
		}
		t2 := time.Now()
		for i, pc := range caches {
			if mesh.HasMail(i) {
				pc.Deliver(mesh.Drain(i))
			}
			pc.Tick(cyc)
		}
		out.cacheTicks += uint64(n)
		t3 := time.Now()
		live := 0
		for _, c := range active {
			c.Tick(cyc)
			if !c.Done() {
				active[live] = c
				live++
			}
		}
		out.coreTicks += uint64(len(active))
		active = active[:live]
		t4 := time.Now()
		out.mesh += t1.Sub(t0)
		out.banks += t2.Sub(t1)
		out.caches += t3.Sub(t2)
		out.cores += t4.Sub(t3)

		if pe := sink.Err(); pe != nil {
			return out, fmt.Errorf("lockstep: cycle %d: %w", cyc, pe)
		}
		if cfg.MaxCycles > 0 && cyc > cfg.MaxCycles {
			return out, fmt.Errorf("lockstep: cycle budget %d exhausted", cfg.MaxCycles)
		}
	}
	out.loop = time.Since(start)
	out.cycles = cyc
	for _, c := range cores {
		out.committed += c.Stats.Committed
	}
	out.msgs = mesh.Messages()
	out.hops = mesh.AvgHops() * float64(out.msgs)
	return out, nil
}

// add accumulates another cell's run into o.
func (o *lockstepOut) add(d lockstepOut) {
	o.cycles += d.cycles
	o.committed += d.committed
	o.msgs += d.msgs
	o.handled += d.handled
	o.cacheTicks += d.cacheTicks
	o.coreTicks += d.coreTicks
	o.hops += d.hops
	o.mesh += d.mesh
	o.banks += d.banks
	o.caches += d.caches
	o.cores += d.cores
	o.loop += d.loop
}

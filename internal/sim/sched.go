package sim

import (
	"context"
	"fmt"
	"math/bits"
)

// Scheduler selects how RunCtx advances simulated time. Only rowperf's
// reference runs still pick one; every command runs SchedEvent.
type Scheduler uint8

const (
	// SchedEvent jumps the clock directly to the earliest future
	// wake-up across all components, skipping dead cycles entirely.
	// It is the default: the zero value of every Options struct that
	// embeds a Scheduler.
	SchedEvent Scheduler = iota
	// SchedCycle is the cross-checked run (WithCrossCheck): it visits
	// every cycle and replays every skipped tick, asserting it idle —
	// the reference the skipping of SchedEvent is checked against.
	SchedCycle
)

// run is the simulation loop. Each iteration picks the next cycle to
// simulate, moves the clock there and runs one phase order: the mesh,
// then banks with mail, then caches in index order, then cores in index
// order, then postCycle. Only nodes that have mail or are due are
// visited, and a visited node's wake times are recomputed. The next
// cycle is nextTarget's — the earliest cycle at which anything can
// happen: a mesh arrival, a cache pipeline event or forced-release
// expiry, a core wheel event or front-end un-stall, or a maintenance
// cadence — except under the cross-check, which visits cycle+1.
//
// Nodes are named by bit masks, bit i for node i (config.Validate caps
// the cores at 64): live holds the cores not yet done, and the cache
// pass builds visit, the nodes it visited. The core pass and the wake
// recompute then walk the set bits of visit in ascending order, so they
// touch only what the cycle visited and keep index order.
//
// That skipping nodes and cycles cannot change a result rests on three
// pillars:
//
//   - The NextEventAt contract: a component reporting its next event
//     at cycle t does no observable work in (now, t) absent external
//     input, and external input (mail, a same-node client call) always
//     lands on a visited node. WithCrossCheck verifies the contract by
//     visiting every cycle and replaying the ticks the wake times said
//     were skippable, asserting their work counters unchanged.
//   - Phase order: there is one, and skipping removes provably idle
//     ticks from it without reordering the rest, so every message send
//     happens at the same cycle, in the same global order, with the
//     same mesh sequence number and the same fault injector RNG draw
//     whichever nodes were skipped.
//   - Maintenance bounds: a jump never overshoots the next multiple
//     of 1024 or MaxCycles+1, so the watchdog, context poll,
//     checkpoints and the cycle budget fire at identical simulated
//     cycles. The coherence check bounds no jump: it runs in Quiesce,
//     once the run is over and the system has drained.
func (s *System) run(ctx context.Context, ms *maintState) (Result, error) {
	s.settle()
	n := len(s.caches)
	cacheWake := make([]uint64, n)
	coreWake := make([]uint64, n)
	var live uint64
	for i, c := range s.cores {
		cacheWake[i] = s.caches[i].NextEventAt(s.cycle)
		coreWake[i] = c.NextEventAt(s.cycle)
		if !c.Done() {
			live |= 1 << i
		}
	}
	for live != 0 {
		target := s.cycle + 1
		if !s.crossCheck {
			target = s.nextTarget(cacheWake, coreWake)
			if target <= s.cycle {
				panic(fmt.Sprintf("sim: run loop would not advance past cycle %d", s.cycle))
			}
		}
		s.cycle = target
		s.visited++
		live = s.step(live, cacheWake, coreWake)
		if err := s.postCycle(ctx, s.cycle, ms); err != nil {
			return Result{}, err
		}
	}
	return s.collect(), nil
}

// step runs the phases of cycle s.cycle over the live cores and returns
// the cores still live after it.
func (s *System) step(live uint64, cacheWake, coreWake []uint64) uint64 {
	cyc := s.cycle
	s.mesh.Tick(cyc)
	for i, d := range s.dirs {
		node := s.cfg.NumCores + i
		if !s.mesh.HasMail(node) {
			// Banks are purely message-driven: no mail means no
			// work, and the bank clock only matters while handling.
			if s.crossCheck && s.mesh.Drain(node) != nil {
				crossCheckFailed("bank", i, "skipped with mail", cyc)
			}
			continue
		}
		d.SetCycle(cyc)
		for _, m := range s.mesh.Drain(node) {
			d.Handle(m)
		}
	}
	var visit uint64
	for i, pc := range s.caches {
		bit := uint64(1) << i
		coreLive := live&bit != 0
		// Drain contract: nil exactly when the inbox is empty, so
		// HasMail is the cheap precheck and Deliver never sees an
		// empty batch.
		mail := s.mesh.HasMail(i)
		cacheDue := cacheWake[i] <= cyc
		if !mail && !cacheDue && (!coreLive || coreWake[i] > cyc) {
			if s.crossCheck {
				work := pc.WorkDone()
				pc.Tick(cyc)
				if pc.WorkDone() != work {
					crossCheckFailed("cache", i, "slept through work", cyc)
				}
			}
			continue
		}
		visit |= bit
		if coreLive && (mail || cacheDue) {
			// Cache-phase callbacks (completions, forced releases,
			// external requests) observe the core clock of the
			// previous cycle: cores tick after caches, so a core
			// visited every cycle last ticked at cyc-1.
			s.cores[i].SetNow(cyc - 1)
		}
		switch {
		case mail:
			// Deliver-time handlers likewise read the controller
			// clock of the previous cycle.
			pc.SetNow(cyc - 1)
			pc.Deliver(s.mesh.Drain(i))
			pc.Tick(cyc)
		case cacheDue:
			pc.Tick(cyc)
		default:
			// Core-only visit: the clock still advances so the
			// core's accesses schedule completions at the right
			// time.
			pc.SetNow(cyc)
		}
	}
	// The core pass walks the live cores the cycle visited. The
	// cross-check walks every live core instead, replaying the skipped
	// ones in their place in index order.
	walk := live & visit
	if s.crossCheck {
		walk = live
	}
	for m := walk; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		c := s.cores[i]
		if visit&(1<<i) == 0 {
			work := c.WorkDone()
			c.Tick(cyc)
			if c.WorkDone() != work || c.Done() {
				crossCheckFailed("core", i, "slept through work", cyc)
			}
			continue
		}
		c.Tick(cyc)
		if s.crossCheck {
			if err := c.CheckInvariants(); err != nil {
				crossCheckFailed("core", i, err.Error(), cyc)
			}
		}
		if c.Done() {
			live &^= 1 << i
		}
	}
	// Only visited nodes can have changed state: unvisited caches
	// receive no mail and no client calls, unvisited cores no
	// responses, so their previously computed wake-ups stand.
	for m := visit; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		cacheWake[i] = s.caches[i].NextEventAt(cyc)
		coreWake[i] = s.cores[i].NextEventAt(cyc)
	}
	return live
}

// crossCheckFailed panics with a violated cross-check: node i of the
// given kind did what it must not at cycle cyc.
func crossCheckFailed(kind string, i int, what string, cyc uint64) {
	panic(fmt.Sprintf("sim: cross-check: %s %d %s at cycle %d", kind, i, what, cyc))
}

// nextTarget computes the next cycle anything can happen at: the
// earliest component wake-up, bounded by the maintenance cadence so
// watchdog/poll/checkpoint checks and the cycle budget fire at the
// same simulated cycles as when every cycle is visited.
func (s *System) nextTarget(cacheWake, coreWake []uint64) uint64 {
	target := (s.cycle &^ 1023) + 1024
	if s.cfg.MaxCycles > 0 && s.cfg.MaxCycles+1 > s.cycle && s.cfg.MaxCycles+1 < target {
		target = s.cfg.MaxCycles + 1
	}
	if t := s.mesh.NextEventAt(s.cycle); t < target {
		target = t
	}
	for i, t := range cacheWake {
		if t < target {
			target = t
		}
		if ct := coreWake[i]; ct < target {
			target = ct
		}
	}
	return target
}

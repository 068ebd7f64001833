// Package sim assembles the full simulated system — cores, private
// caches, mesh interconnect and directory/L3 banks — and runs a
// workload to completion, extracting the metrics the experiment
// harnesses report.
package sim

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"rowsim/internal/cache"
	"rowsim/internal/coherence"
	"rowsim/internal/config"
	"rowsim/internal/core"
	"rowsim/internal/faults"
	"rowsim/internal/interconnect"
	"rowsim/internal/trace"
)

// System is one assembled multicore simulation.
type System struct {
	cfg    *config.Config
	mesh   *interconnect.Mesh
	cores  []*core.Core
	caches []*cache.Private
	dirs   []*coherence.Directory
	bankOf func(line uint64) int

	sink     *coherence.ErrorSink
	injector *faults.Injector

	warmFilter func(core int, line uint64) bool
	image      *WarmImage // WithWarmImage: read-only, shared with other systems
	crossCheck bool

	// warmDue is New's warm, deferred until something reads or advances
	// the system (settle): Warm over progs, or image restored.
	// RestoreSnap drops it.
	warmDue bool
	progs   []trace.Program

	ckptEvery uint64
	ckptFn    func(cycle uint64, snap *SysSnap) error
	lastCkpt  uint64

	cycle   uint64
	visited uint64 // loop iterations: cycles actually simulated (vs skipped)
}

// Option customizes system construction.
type Option func(*System)

// WithWarmFilter restricts cache warming: lines for which the filter
// returns false stay cold (e.g. a capacity-missing atomic region).
func WithWarmFilter(f func(core int, line uint64) bool) Option {
	return func(s *System) { s.warmFilter = f }
}

// WithWarmImage makes the system restore img where it would have
// warmed: the caches and banks come up in the state Warm left the
// system the image was taken from (see System.WarmImage), for the cost
// of their Restore methods, and like the warm the restore waits for
// the system's first read or advance (see New). The image is only
// read, so any number of systems — concurrent ones included — may be
// built from one. New refuses an image whose memory geometry or core
// count is not the configuration's; with cfg.WarmCaches off there is
// nothing to restore and the image is ignored. The warm filter plays
// no part: it already shaped the image.
func WithWarmImage(img *WarmImage) Option {
	return func(s *System) { s.image = img }
}

// WithFaults installs a fault injector on the interconnect (see the
// faults package). Legal fault mixes perturb timing only; illegal ones
// (dup/drop) exercise failure detection.
func WithFaults(cfg faults.Config) Option {
	return func(s *System) {
		s.injector = faults.New(cfg)
		s.mesh.SetPerturber(s.injector)
	}
}

// WithCrossCheck verifies the run loop's skip decisions: every cycle
// is visited, and every component the loop would skip in it is run
// anyway and asserted to be a no-op (empty drain for banks, unchanged
// work counter for caches and cores). A violated skip panics — it means
// a wake time is wrong and results could silently diverge from visiting
// everything. Enabled in tests and the torture harness; too slow for
// real runs (it defeats the skipping it checks).
func WithCrossCheck() Option {
	return func(s *System) { s.crossCheck = true }
}

// WithScheduler selects how the run loop advances: SchedEvent (the
// default) jumps to the next wake-up, SchedCycle is WithCrossCheck.
// Both produce byte-identical Results (modulo CyclesVisited; see
// Result.SchedNormalized). Only rowperf's reference runs still call it.
// The scheduler is deliberately not part of config.Config: it cannot
// change results, so it stays out of checkpoint content keys, and a
// checkpoint taken in one mode restores into the other.
func WithScheduler(m Scheduler) Option {
	return func(s *System) {
		if m == SchedCycle {
			s.crossCheck = true
		}
	}
}

// WithCheckpoint arranges for fn to receive a full system snapshot
// every `every` simulated cycles (coarsened to the existing 1024-cycle
// cold-block cadence, so the per-cycle hot path pays nothing — with
// checkpointing off the only cost is one predictable compare every
// 1024 cycles). fn runs with the error sink checked empty and the
// simulated clock frozen; an error from fn aborts the run. Checkpoint
// cycles depend only on the cadence, never on wall-clock time, so two
// runs of the same workload checkpoint at identical instants.
func WithCheckpoint(every uint64, fn func(cycle uint64, snap *SysSnap) error) Option {
	return func(s *System) {
		s.ckptEvery = every
		s.ckptFn = fn
	}
}

// New builds a system running one program per core. Cores without a
// program idle (len(progs) may be less than NumCores).
//
// With cfg.WarmCaches on, New records the warm (Warm over progs, or
// the WithWarmImage image restored) instead of running it. The system
// warms the first time anything reads or advances it: Run and RunCtx,
// Snapshot, WarmImage, Quiesce, and the Cores, Caches and Directories
// accessors. RestoreSnap drops the pending warm, because the snapshot
// overwrites every cache and bank the warm would fill, so a system
// built to resume from a checkpoint never pays for it. progs must not
// change until then.
func New(cfg *config.Config, progs []trace.Program, opts ...Option) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(progs) > cfg.NumCores {
		return nil, fmt.Errorf("sim: %d programs for %d cores", len(progs), cfg.NumCores)
	}
	n := cfg.NumCores
	banks := cfg.Mem.L3Banks
	mesh := interconnect.NewMesh(n+banks, cfg.Mem.LinkCycles, cfg.Mem.RouterCycles, cfg.Mem.BaseCycles)

	bankOf := func(line uint64) int { return n + cfg.Mem.HomeBank(line) }

	s := &System{cfg: cfg, mesh: mesh, bankOf: bankOf, sink: &coherence.ErrorSink{}}
	mesh.SetErrorSink(s.sink)
	for b := 0; b < banks; b++ {
		d := coherence.NewDirectory(
			n+b, b, mesh,
			cfg.Mem.L3.SizeBytes, cfg.Mem.L3.Ways, cfg.Mem.LineBytes,
			cfg.Mem.L3.HitCycles, cfg.Mem.DRAMCycles,
		)
		d.SetErrorSink(s.sink)
		// Room for four stalled requests per core: what a bank of
		// rowperf's workloads queues at once, but for the hottest banks
		// of 8-core canneal.
		d.Reserve(0, 4*n)
		s.dirs = append(s.dirs, d)
	}
	for i := 0; i < n; i++ {
		var prog trace.Program
		if i < len(progs) {
			prog = progs[i]
		}
		c := core.New(i, cfg, prog)
		pc := cache.NewPrivate(i, cfg, mesh, c, bankOf)
		c.AttachMemory(pc)
		c.SetErrorSink(s.sink)
		pc.SetErrorSink(s.sink)
		s.cores = append(s.cores, c)
		s.caches = append(s.caches, pc)
	}
	for _, opt := range opts {
		opt(s)
	}
	if cfg.WarmCaches {
		if s.image != nil {
			if err := s.image.fits(s); err != nil {
				return nil, err
			}
		}
		s.warmDue, s.progs = true, progs
	}
	return s, nil
}

// settle runs the warm New deferred, if it is still due. Everything
// that reads or advances the system calls it first.
func (s *System) settle() {
	if !s.warmDue {
		return
	}
	s.warmDue = false
	if s.image != nil {
		s.restoreImage(s.image)
	} else {
		s.warm(s.progs)
	}
	s.progs = nil
}

// Cores exposes the simulated cores (stats inspection).
func (s *System) Cores() []*core.Core {
	s.settle()
	return s.cores
}

// Caches exposes the private caches (stats inspection).
func (s *System) Caches() []*cache.Private {
	s.settle()
	return s.caches
}

// Directories exposes the L3/directory banks (stats inspection).
func (s *System) Directories() []*coherence.Directory {
	s.settle()
	return s.dirs
}

// Cycle returns the current simulation cycle.
func (s *System) Cycle() uint64 { return s.cycle }

// Warm pre-loads the caches with the lines the programs touch, the
// way a real evaluation measures a region of interest after warm-up:
// lines accessed by a single core are installed exclusively in that
// core's private L2 (and at the directory), lines shared by several
// cores are installed in the L3. Without this, short traces are
// dominated by cold first-touch DRAM misses that real ROI
// measurements never see. A warm New deferred runs first.
func (s *System) Warm(progs []trace.Program) {
	s.settle()
	s.warm(progs)
}

// warm is Warm's body, which settle runs for a deferred warm.
func (s *System) warm(progs []trace.Program) {
	lineShift := uint(bits.TrailingZeros(uint(s.cfg.Mem.LineBytes)))
	// One key per memory access: the line number above the core
	// number. A single sort then puts each line's accesses side by
	// side with their cores ascending, so a line has one owner exactly
	// when the first and last key of its run name the same core.
	coreBits := uint(bits.Len(uint(len(progs))))
	coreMask := uint64(1)<<coreBits - 1
	mem := 0
	for _, prog := range progs {
		for i := range prog {
			if prog[i].IsMem() {
				mem++
			}
		}
	}
	keys := make([]uint64, 0, mem)
	var seen uint64
	for c, prog := range progs {
		for i := range prog {
			if in := &prog[i]; in.IsMem() {
				idx := in.Addr >> lineShift
				seen |= idx
				keys = append(keys, idx<<coreBits|uint64(c))
			}
		}
	}
	if bits.Len64(seen)+int(coreBits) > 64 {
		panic(fmt.Sprintf("sim: Warm cannot key %d programs over line numbers up to %#x", len(progs), seen))
	}
	slices.Sort(keys)

	n := s.cfg.NumCores
	// walk calls fn on every line the filter lets warm, in ascending
	// order, with its owner, or -1 for a line several cores share.
	walk := func(fn func(line uint64, c int)) {
		for i := 0; i < len(keys); {
			idx := keys[i] >> coreBits
			j := i + 1
			for j < len(keys) && keys[j]>>coreBits == idx {
				j++
			}
			c := int(keys[i] & coreMask)
			if int(keys[j-1]&coreMask) != c {
				c = -1 // shared
			}
			i = j
			line := idx << lineShift
			if s.warmFilter != nil && !s.warmFilter(c, line) {
				continue
			}
			if c >= n {
				c = -1
			}
			fn(line, c)
		}
	}
	// A first walk counts each bank's owned lines, so that its index
	// has room for them before the second walk adds them.
	owned := make([]int, len(s.dirs))
	walk(func(line uint64, c int) {
		if c >= 0 {
			owned[s.cfg.Mem.HomeBank(line)]++
		}
	})
	for b, d := range s.dirs {
		d.Reserve(owned[b], 0)
	}
	// Installing in ascending line order is what makes a warm start
	// reproducible: LRU keeps the highest lines of an over-capacity
	// region — a fixed subset.
	walk(func(line uint64, c int) {
		bank := s.cfg.Mem.HomeBank(line)
		if c >= 0 {
			s.dirs[bank].WarmOwned(line, c)
			s.caches[c].Warm(line, cache.StateE)
		} else {
			s.dirs[bank].WarmL3(line)
		}
	})
}

// watchdogWindow is the progress-check horizon: a healthy system
// commits something well within this many cycles.
const watchdogWindow = 1 << 19

// Run simulates until every core finishes its program. It returns a
// structured error when the cycle budget is exhausted
// (*CycleLimitError), the system stops making progress
// (*DeadlockError, with the wait-for chain), or a component detects a
// protocol violation (*coherence.ProtocolError, with the message trace
// for the affected line attached).
func (s *System) Run() (Result, error) {
	return s.RunCtx(context.Background())
}

// RunCtx is Run under cooperative cancellation: the context is polled
// at the existing 1024-cycle watchdog cadence (never on the per-cycle
// hot path), so an expired deadline or a canceled context stops the
// run within one check window and returns a *RunCanceledError wrapping
// ctx.Err(). The wall-clock deadline carried by the context is
// distinct from the simulated-cycle budget (Config.MaxCycles): the
// former bounds host time, the latter simulated time.
func (s *System) RunCtx(ctx context.Context) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, &RunCanceledError{Cycle: s.cycle, Cause: err}
	}
	return s.run(ctx, &maintState{})
}

// maintState is the per-run maintenance bookkeeping: the
// committed-progress watchdog.
type maintState struct {
	lastCommitted uint64
	lastProgress  uint64
}

// postCycle is the epilogue of every simulated cycle: protocol-error
// surfacing, the cycle budget and the 1024-cycle cold block (context
// poll, progress watchdog, checkpoints). The loop visits every multiple
// of 1024 even when it skips cycles, so maintenance fires at the same
// simulated cycles under both schedulers.
func (s *System) postCycle(ctx context.Context, cyc uint64, ms *maintState) error {
	if pe := s.sink.Err(); pe != nil {
		pe.Trace = s.mesh.RecentTrace(pe.Line, 32)
		return pe
	}
	if s.cfg.MaxCycles > 0 && cyc > s.cfg.MaxCycles {
		return &CycleLimitError{MaxCycles: s.cfg.MaxCycles, Cycle: cyc, Dump: s.dump()}
	}
	if cyc&1023 == 0 {
		if err := ctx.Err(); err != nil {
			return &RunCanceledError{Cycle: cyc, Cause: err}
		}
		var committed uint64
		for _, c := range s.cores {
			committed += c.Stats.Committed
		}
		if committed != ms.lastCommitted {
			ms.lastCommitted = committed
			ms.lastProgress = cyc
		} else if cyc-ms.lastProgress > watchdogWindow {
			return s.diagnoseDeadlock()
		}
		if s.ckptEvery != 0 && cyc-s.lastCkpt >= s.ckptEvery {
			// Normalize the component clocks left stale on skipped
			// nodes, so a snapshot has the same shape whichever nodes
			// were skipped and restores under either scheduler (a no-op
			// when every node was just ticked). Done cores stay frozen
			// at finishedAt: Tick returns early on them. Nothing reads
			// these clocks before the next visit overwrites them, so
			// the run itself is unaffected.
			for _, pc := range s.caches {
				pc.SetNow(cyc)
			}
			for _, c := range s.cores {
				if !c.Done() {
					c.SetNow(cyc)
				}
			}
			s.lastCkpt = cyc
			snap := s.Snapshot()
			if err := s.ckptFn(cyc, snap); err != nil {
				return fmt.Errorf("sim: checkpoint at cycle %d: %w", cyc, err)
			}
		}
	}
	return nil
}

// FaultStats returns the injector's decision counts, or a zero value
// when no faults are installed.
func (s *System) FaultStats() faults.Stats {
	if s.injector == nil {
		return faults.Stats{}
	}
	return s.injector.Stats()
}

// MustRun runs and panics on simulation failure (experiment harness
// convenience: a failure is a bug, not an expected condition).
func (s *System) MustRun() Result {
	r, err := s.Run()
	if err != nil {
		panic(err)
	}
	return r
}

// Quiesce runs after Run and checks the state the run left behind. It
// advances the mesh, banks and caches with no core ticking until no
// message is in flight and no cache has work pending, at most
// watchdogWindow cycles. A bank still holding a transaction then lost a
// message: Quiesce returns a *DeadlockError whose dump names the bank
// and the line. Otherwise it checks the single-writer/multiple-reader
// invariant over every private cache and returns a
// *CoherenceViolationError for a line held M or E beside another valid
// copy. A protocol error raised while draining is returned as Run
// returns one.
func (s *System) Quiesce() error {
	s.settle()
	n := len(s.caches)
	cacheWake := make([]uint64, n)
	coreWake := make([]uint64, n)
	for i, pc := range s.caches {
		cacheWake[i] = pc.NextEventAt(s.cycle)
		coreWake[i] = s.cores[i].NextEventAt(s.cycle)
	}
	start := s.cycle
	for s.busy() && s.cycle-start < watchdogWindow {
		target := s.cycle + 1
		if !s.crossCheck {
			target = s.nextTarget(cacheWake, coreWake)
		}
		s.cycle = target
		s.step(0, cacheWake, coreWake)
		if pe := s.sink.Err(); pe != nil {
			pe.Trace = s.mesh.RecentTrace(pe.Line, 32)
			return pe
		}
	}
	if s.busy() || slices.ContainsFunc(s.dirs, (*coherence.Directory).PendingWork) {
		return &DeadlockError{Cycle: s.cycle, Window: s.cycle - start,
			Dump: "\nstill busy after draining with every core done:\n" + s.dump()}
	}
	return s.checkCoherence()
}

// busy reports a message in flight or a private cache with work left.
func (s *System) busy() bool {
	return !s.mesh.Idle() || slices.ContainsFunc(s.caches, (*cache.Private).PendingWork)
}

// checkCoherence is Quiesce's single-writer/multiple-reader check: a
// line held M or E by one core must not be valid anywhere else. It is
// only meaningful on a drained system, where no transaction is open.
func (s *System) checkCoherence() error {
	type holder struct {
		core  int
		state uint8
	}
	holders := make(map[uint64][]holder)
	for i, pc := range s.caches {
		core := i
		pc.ForEachLine(func(line uint64, state uint8) {
			if state == cache.StateI {
				return
			}
			holders[line] = append(holders[line], holder{core: core, state: state})
		})
	}
	// Sort the lines so that, when several are in violation, the same
	// one is reported on every run (the error text reaches logs and
	// torture-harness dedup keys).
	lines := make([]uint64, 0, len(holders))
	for line := range holders {
		lines = append(lines, line)
	}
	slices.Sort(lines)
	for _, line := range lines {
		hs := holders[line]
		if len(hs) < 2 {
			continue
		}
		for _, h := range hs {
			if h.state == cache.StateM || h.state == cache.StateE {
				verr := &CoherenceViolationError{Line: line}
				for _, hh := range hs {
					verr.Holders = append(verr.Holders, Holder{Core: hh.core, State: hh.state})
				}
				return verr
			}
		}
	}
	return nil
}

func (s *System) dump() string {
	out := ""
	for _, c := range s.cores {
		if !c.Done() {
			out += c.String() + "\n"
		}
	}
	for _, d := range s.dirs {
		for _, line := range d.DebugBlocked() {
			out += line + "\n"
		}
	}
	for _, pc := range s.caches {
		for _, line := range pc.DebugMSHRs() {
			out += line + "\n"
		}
	}
	return out
}

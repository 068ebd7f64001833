package sim

import (
	"fmt"
	"runtime"
	"testing"

	"rowsim/internal/config"
	"rowsim/internal/faults"
	"rowsim/internal/trace"
	"rowsim/internal/workload"
)

// schedBuild assembles one system for the scheduler-equivalence tests.
func schedBuild(t *testing.T, policy config.AtomicPolicy, wl string, fc faults.Config, instrs int, opts ...Option) *System {
	t.Helper()
	p := workload.MustGet(wl)
	return schedSystem(t, policy, p, workload.Generate(p, 4, instrs, 11), fc, opts...)
}

// schedSystem assembles a 4-core system running progs, p's traces.
func schedSystem(t *testing.T, policy config.AtomicPolicy, p workload.Params, progs []trace.Program, fc faults.Config, opts ...Option) *System {
	t.Helper()
	cfg := config.Default()
	cfg.NumCores = 4
	cfg.Policy = policy
	cfg.MaxCycles = 50_000_000
	all := []Option{WithWarmFilter(workload.WarmFilter(p))}
	if fc != (faults.Config{}) {
		all = append(all, WithFaults(fc))
	}
	all = append(all, opts...)
	s, err := New(cfg, progs, all...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var (
	schedJitter  = faults.Config{Seed: 9, JitterProb: 0.3, JitterMax: 12}
	schedReorder = faults.Config{Seed: 5, JitterProb: 0.25, JitterMax: 12, ReorderProb: 0.05, ReorderMax: 64}
)

// schedRow is one system the equivalence tests build. cold starts it
// with empty caches.
type schedRow struct {
	name   string
	policy config.AtomicPolicy
	wl     string
	faults faults.Config
	cold   bool
}

// build assembles the row's system with instrs a core.
func (tc schedRow) build(t *testing.T, instrs int, opts ...Option) *System {
	if tc.cold {
		// Options run before New warms the caches.
		opts = append(opts, func(s *System) { s.cfg.WarmCaches = false })
	}
	return schedBuild(t, tc.policy, tc.wl, tc.faults, instrs, opts...)
}

// schedMatrix is what the equivalence tests run over: eager, lazy and
// RoW policies, with and without legal fault mixes. The cold row
// keeps MSHR files full, so its cross-check runs while misses are
// parked.
var schedMatrix = []schedRow{
	{name: "eager_sps", policy: config.PolicyEager, wl: "sps"},
	{name: "eager_cq_jitter", policy: config.PolicyEager, wl: "cq", faults: schedJitter},
	{name: "lazy_cq", policy: config.PolicyLazy, wl: "cq"},
	{name: "lazy_sps_reorder", policy: config.PolicyLazy, wl: "sps", faults: schedReorder},
	{name: "row_pc", policy: config.PolicyRoW, wl: "pc"},
	{name: "row_cq_jitter", policy: config.PolicyRoW, wl: "cq", faults: schedJitter},
	{name: "row_canneal_cold_jitter", policy: config.PolicyRoW, wl: "canneal", faults: schedJitter, cold: true},
}

// TestSchedulerModeEquivalence is the headline property of the run
// loop's skipping: over eager, lazy and RoW policies, with and
// without fault injection, a plain run must produce a Result
// byte-identical to the cross-checked one (SchedCycle), modulo the
// visited-cycle bookkeeping. The cross-check visits every cycle and
// replays every tick the wake times said was skippable, so a wrong
// NextEventAt panics inside it; the plain run must actually have
// skipped cycles to earn its keep.
func TestSchedulerModeEquivalence(t *testing.T) {
	for _, tc := range schedMatrix {
		t.Run(tc.name, func(t *testing.T) {
			checkedSys := tc.build(t, 3000, WithScheduler(SchedCycle))
			checked := checkedSys.MustRun()
			plain := tc.build(t, 3000).MustRun()
			if checked.SchedNormalized() != plain.SchedNormalized() {
				t.Fatalf("cross-checked run diverges from plain run:\nchecked: %+v\nplain:   %+v", checked, plain)
			}
			if checked.CyclesVisited != checked.Cycles {
				t.Fatalf("cross-check visited %d of %d cycles; must visit all", checked.CyclesVisited, checked.Cycles)
			}
			if plain.CyclesVisited >= plain.Cycles {
				t.Fatalf("plain run visited %d of %d cycles; skipped nothing", plain.CyclesVisited, plain.Cycles)
			}
			if tc.cold && mshrFull(checkedSys) == 0 {
				t.Fatal("the cold row parked no miss: the cross-check never ran with misses parked")
			}
		})
	}
}

// TestEventCrossCheckClean runs with the WithCrossCheck option itself
// rather than through WithScheduler: every cycle is visited, every tick
// the wake times said was skippable is replayed and asserted idle. A
// wrong NextEventAt panics inside the run; a divergent result fails here.
func TestEventCrossCheckClean(t *testing.T) {
	plain := schedBuild(t, config.PolicyRoW, "cq", faults.Config{}, 3000).MustRun()
	checked := schedBuild(t, config.PolicyRoW, "cq", faults.Config{}, 3000, WithCrossCheck()).MustRun()
	if plain.SchedNormalized() != checked.SchedNormalized() {
		t.Fatalf("cross-checked run diverges from plain run:\nplain:   %+v\nchecked: %+v", plain, checked)
	}
	if checked.CyclesVisited != checked.Cycles {
		t.Fatalf("cross-check visited %d of %d cycles; must visit all", checked.CyclesVisited, checked.Cycles)
	}
}

// TestEventModeLatenciesUnchanged is the regression test for the
// skip-path clock wart: completion events are scheduled relative to
// event time (the controller clock is only advanced on visits), so
// every latency-derived metric must match the cross-checked run
// (SchedCycle), which visits every cycle, exactly — hit latencies,
// miss fills, and the lock-window tail included.
func TestEventModeLatenciesUnchanged(t *testing.T) {
	cycle := schedBuild(t, config.PolicyEager, "canneal", faults.Config{}, 4000, WithScheduler(SchedCycle)).MustRun()
	event := schedBuild(t, config.PolicyEager, "canneal", faults.Config{}, 4000, WithScheduler(SchedEvent)).MustRun()
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"MissLatency", event.MissLatency, cycle.MissLatency},
		{"MissLatencyP99", event.MissLatencyP99, cycle.MissLatencyP99},
		{"DispatchToIssue", event.DispatchToIssue, cycle.DispatchToIssue},
		{"IssueToLock", event.IssueToLock, cycle.IssueToLock},
		{"LockToUnlock", event.LockToUnlock, cycle.LockToUnlock},
		{"LockHoldP99", event.LockHoldP99, cycle.LockHoldP99},
		{"IPC", event.IPC, cycle.IPC},
	} {
		if c.got != c.want {
			t.Errorf("%s: plain run %v, cross-checked run %v", c.name, c.got, c.want)
		}
	}
}

// TestSchedulerSteadyStateAllocs pins event mode's per-cycle
// hot path — the wake-time queries and the jump-target computation —
// at zero allocations in steady state.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	s := schedBuild(t, config.PolicyRoW, "cq", faults.Config{}, 2000)
	s.settle()
	n := len(s.caches)
	cacheWake := make([]uint64, n)
	coreWake := make([]uint64, n)
	if allocs := testing.AllocsPerRun(1, func() {
		for range 200 {
			for i := 0; i < n; i++ {
				cacheWake[i] = s.caches[i].NextEventAt(s.cycle)
				coreWake[i] = s.cores[i].NextEventAt(s.cycle)
			}
			_ = s.mesh.NextEventAt(s.cycle)
			_ = s.nextTarget(cacheWake, coreWake)
		}
	}); allocs != 0 {
		t.Fatalf("scheduler hot path allocates %v times in 200 cycles; want 0", allocs)
	}
}

// TestStepSteadyStateAllocs pins a real run's loop — the mask walks,
// every phase's ticks, and under cross-check the replays and the
// line-filter recount — at zero allocations after its first 1,000
// steps. The trace is fresh (cq, 4 cores × 20,000 instructions, seed
// 11), so the queues and wait lists keep meeting new peaks until the
// first core finishes, and each 1,000-step window is counted whole with
// runtime.MemStats. The only allocation a window may make is the sram's,
// whose storage follows use: a line filled into a set nothing touched
// before takes a block, and every 64th block a chunk. When a window
// allocates, a second run of the same system counts those blocks in
// the memory profile (sramBlockAllocs). It is a run of its own because
// the collections that publish the profile are not free: a window
// measured right after them now and then counts one allocation that
// no frame of the run made.
func TestStepSteadyStateAllocs(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	p := workload.MustGet("cq")
	progs := workload.Generate(p, 4, 20000, 11)
	mallocs := func() int64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.Mallocs)
	}
	for _, cross := range []bool{false, true} {
		got := freshWindows(t, p, progs, cross, mallocs)
		var blocks []int64
		for w := 1; w < len(got); w++ {
			if got[w] == 0 {
				continue
			}
			if blocks == nil {
				blocks = freshWindows(t, p, progs, cross, sramBlockAllocs)
			}
			if got[w] != blocks[w] {
				t.Errorf("cross-check %v: window %d allocates %d times, %d of them sram blocks; want none but those",
					cross, w, got[w], blocks[w])
			}
		}
		if len(got) < 10 {
			t.Fatalf("cross-check %v: the first core finished after %d windows; the test measures too little", cross, len(got))
		}
	}
}

// freshWindows runs a fresh 4-core system on progs in windows of 1,000
// run-loop steps until its first core finishes, and returns how far
// count moved across each window.
func freshWindows(t *testing.T, p workload.Params, progs []trace.Program, cross bool, count func() int64) []int64 {
	var opts []Option
	if cross {
		opts = append(opts, WithCrossCheck())
	}
	s := schedSystem(t, config.PolicyRoW, p, progs, faults.Config{}, opts...)
	s.settle() // the warm Run would run before its first step
	n := len(s.caches)
	cacheWake := make([]uint64, n)
	coreWake := make([]uint64, n)
	all := uint64(1)<<n - 1
	live := all
	for i := range s.cores {
		cacheWake[i] = s.caches[i].NextEventAt(s.cycle)
		coreWake[i] = s.cores[i].NextEventAt(s.cycle)
	}
	var moved []int64
	for live == all {
		before := count()
		for k := 0; k < 1000 && live == all; k++ {
			if cross {
				s.cycle++
			} else {
				s.cycle = s.nextTarget(cacheWake, coreWake)
			}
			live = s.step(live, cacheWake, coreWake)
		}
		d := count() - before
		moved = append(moved, d)
	}
	return moved
}

// sramBlockAllocs counts the heap objects the sram's first-touch
// storage (sram.(*Array).own) has allocated, as the memory profile
// records them; MemProfileRate must be 1. The two collections publish
// the allocations made since the last ones.
func sramBlockAllocs() int64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	var total int64
	for _, r := range recs[:n] {
		for frames := runtime.CallersFrames(r.Stack()); ; {
			f, more := frames.Next()
			if f.Function == "rowsim/internal/sram.(*Array).own" {
				total += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}

// TestCrossCheckReplaysInIndexOrder: the cross-check replays a skipped
// core in its place among the visited ones, not before them. The test
// hides a due core 1 from the loop; the replay must find its work only
// after core 0, visited for its own work, has ticked.
func TestCrossCheckReplaysInIndexOrder(t *testing.T) {
	s := schedBuild(t, config.PolicyRoW, "cq", faults.Config{}, 20000, WithCrossCheck())
	s.settle()
	n := len(s.caches)
	cacheWake := make([]uint64, n)
	coreWake := make([]uint64, n)
	live := uint64(1)<<n - 1
	for i := range s.cores {
		cacheWake[i] = s.caches[i].NextEventAt(s.cycle)
		coreWake[i] = s.cores[i].NextEventAt(s.cycle)
	}
	step := func() (msg any) {
		defer func() { msg = recover() }()
		live = s.step(live, cacheWake, coreWake)
		return nil
	}
	for tries := 0; tries < 5000; tries++ {
		s.cycle++
		cyc := s.cycle
		if coreWake[0] != cyc || coreWake[1] != cyc {
			if msg := step(); msg != nil {
				t.Fatal(msg)
			}
			continue
		}
		coreWake[1] = ^uint64(0)
		before := s.cores[0].WorkDone()
		msg := step()
		if msg == nil {
			// Core 1 was visited anyway (mail or a due cache).
			coreWake[1] = s.cores[1].NextEventAt(cyc)
			continue
		}
		if want := fmt.Sprintf("sim: cross-check: core 1 slept through work at cycle %d", cyc); msg != want {
			t.Fatalf("panic %q, want %q", msg, want)
		}
		if s.cores[0].WorkDone() == before {
			t.Fatal("core 1 was replayed before visited core 0 ticked")
		}
		return
	}
	t.Fatal("no cycle with cores 0 and 1 both due and core 1 otherwise unvisited")
}

// mshrFull sums the caches' parked-miss counts (Result has none).
func mshrFull(s *System) (n uint64) {
	for _, pc := range s.caches {
		n += pc.Stats.MSHRFull.Value()
	}
	return n
}

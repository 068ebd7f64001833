package sim

import (
	"testing"
	"testing/quick"

	"rowsim/internal/config"
	"rowsim/internal/trace"
	"rowsim/internal/workload"
)

// buildAndRun assembles a small system and runs it to completion.
func buildAndRun(t *testing.T, cfg *config.Config, progs []trace.Program) (Result, *System) {
	t.Helper()
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 20_000_000
	}
	s, err := New(cfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r, s
}

func smallCfg(cores int) *config.Config {
	cfg := config.Default()
	cfg.NumCores = cores
	cfg.Policy = config.PolicyEager
	return cfg
}

// seq builds a simple program of ALU ops with an optional dependency
// chain.
func aluProgram(n int, chained bool) trace.Program {
	p := make(trace.Program, n)
	for i := range p {
		p[i] = trace.Instr{PC: uint64(0x400000 + 4*i), Kind: trace.IntOp, Dst: trace.Reg(1 + i%40)}
		if chained {
			p[i].Dst = 1
			p[i].Src1 = 1
		}
	}
	return p
}

func TestALUProgramCompletes(t *testing.T) {
	r, _ := buildAndRun(t, smallCfg(1), []trace.Program{aluProgram(1000, false)})
	if r.Committed != 1000 {
		t.Fatalf("committed %d, want 1000", r.Committed)
	}
}

func TestDependentChainSerializes(t *testing.T) {
	rInd, _ := buildAndRun(t, smallCfg(1), []trace.Program{aluProgram(2000, false)})
	rDep, _ := buildAndRun(t, smallCfg(1), []trace.Program{aluProgram(2000, true)})
	// A fully dependent chain is bounded below by one op per cycle;
	// independent ops run several per cycle.
	if rDep.Cycles < 2000 {
		t.Fatalf("dependent chain finished in %d cycles (< chain length)", rDep.Cycles)
	}
	if rInd.Cycles*2 > rDep.Cycles {
		t.Fatalf("no ILP advantage: independent %d vs chained %d", rInd.Cycles, rDep.Cycles)
	}
}

func TestWarmLoadsHit(t *testing.T) {
	// Loads over a small warmed region never miss.
	n := 2000
	p := make(trace.Program, n)
	for i := range p {
		p[i] = trace.Instr{
			PC: uint64(0x400000 + 4*(i%64)), Kind: trace.Load,
			Dst: trace.Reg(1 + i%40), Addr: uint64(0x40000000 + (i%256)*64), Size: 8,
		}
	}
	cfg := smallCfg(1)
	cfg.Mem.PrefetcherDegree = 0 // prefetches past the region would count as misses
	r, s := buildAndRun(t, cfg, []trace.Program{p})
	if r.Committed != uint64(n) {
		t.Fatalf("committed %d", r.Committed)
	}
	if miss := s.Caches()[0].Stats.Misses.Value(); miss != 0 {
		t.Fatalf("%d misses over a warmed region", miss)
	}
}

func TestColdLoadsMiss(t *testing.T) {
	p := make(trace.Program, 64)
	for i := range p {
		p[i] = trace.Instr{
			PC: uint64(0x400000 + 4*i), Kind: trace.Load,
			Dst: trace.Reg(1 + i%40), Addr: uint64(0x40000000 + i*64), Size: 8,
		}
	}
	cfg := smallCfg(1)
	cfg.WarmCaches = false
	r, s := buildAndRun(t, cfg, []trace.Program{p})
	if r.Committed != 64 {
		t.Fatalf("committed %d", r.Committed)
	}
	if miss := s.Caches()[0].Stats.Misses.Value(); miss != 64 {
		t.Fatalf("%d misses, want 64 (cold)", miss)
	}
	if r.MissLatency < 100 {
		t.Fatalf("cold miss latency %.0f suspiciously low", r.MissLatency)
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	// store [X]; load [X] immediately after: the load forwards.
	p := trace.Program{
		{PC: 0x400000, Kind: trace.Store, Src1: 1, Addr: 0x40000100, Size: 8},
		{PC: 0x400004, Kind: trace.Load, Dst: 2, Addr: 0x40000100, Size: 8},
	}
	// Pad so the system has work.
	p = append(p, aluProgram(100, false)...)
	r, _ := buildAndRun(t, smallCfg(1), []trace.Program{p})
	if r.LoadForwards == 0 {
		t.Fatal("no store-to-load forwarding")
	}
}

func TestFenceSlowsMemoryOverlap(t *testing.T) {
	mk := func(fenced bool) trace.Program {
		var p trace.Program
		for i := 0; i < 200; i++ {
			p = append(p, trace.Instr{
				PC: uint64(0x400000 + 16*i), Kind: trace.Load,
				Dst: 1, Addr: uint64(0x40000000 + i*64), Size: 8,
			})
			if fenced {
				p = append(p, trace.Instr{PC: uint64(0x400008 + 16*i), Kind: trace.Fence})
			}
		}
		return p
	}
	cfg := smallCfg(1)
	cfg.WarmCaches = false // misses expose the fence serialization
	rPlain, _ := buildAndRun(t, cfg, []trace.Program{mk(false)})
	cfg2 := smallCfg(1)
	cfg2.WarmCaches = false
	rFenced, _ := buildAndRun(t, cfg2, []trace.Program{mk(true)})
	if rFenced.Cycles < rPlain.Cycles*2 {
		t.Fatalf("fences did not serialize: %d vs %d", rFenced.Cycles, rPlain.Cycles)
	}
}

func atomicProgram(n int, line uint64, op trace.AtomicKind) trace.Program {
	var p trace.Program
	for i := 0; i < n; i++ {
		p = append(p,
			trace.Instr{PC: uint64(0x400000 + 16*i), Kind: trace.IntOp, Dst: 1},
			trace.Instr{PC: uint64(0x400004 + 16*i), Kind: trace.Atomic, Dst: 2, Addr: line, Size: 8, AtomicOp: op},
			trace.Instr{PC: uint64(0x400008 + 16*i), Kind: trace.IntOp, Src1: 2, Dst: 3},
		)
	}
	return p
}

func TestAtomicsCompleteEager(t *testing.T) {
	r, _ := buildAndRun(t, smallCfg(1), []trace.Program{atomicProgram(50, 0x40000000, trace.FAA)})
	if r.Atomics != 50 {
		t.Fatalf("atomics = %d, want 50", r.Atomics)
	}
	if r.EagerIssued == 0 || r.LazyIssued != 0 {
		t.Fatalf("issued eager=%d lazy=%d, want all eager", r.EagerIssued, r.LazyIssued)
	}
}

func TestAtomicsCompleteLazy(t *testing.T) {
	cfg := smallCfg(1)
	cfg.Policy = config.PolicyLazy
	r, _ := buildAndRun(t, cfg, []trace.Program{atomicProgram(50, 0x40000000, trace.FAA)})
	if r.Atomics != 50 {
		t.Fatalf("atomics = %d, want 50", r.Atomics)
	}
	if r.LazyIssued == 0 || r.EagerIssued != 0 {
		t.Fatalf("issued eager=%d lazy=%d, want all lazy", r.EagerIssued, r.LazyIssued)
	}
	if r.LockToUnlock > 10 {
		t.Fatalf("lazy lock window %.0f cycles, want tiny", r.LockToUnlock)
	}
}

func TestContendedAtomicsSerializeAcrossCores(t *testing.T) {
	// Two cores hammering one line: the line must bounce (forwards at
	// the directory) and external requests must hit locked windows.
	const hot = uint64(0x10000000)
	progs := []trace.Program{
		atomicProgram(100, hot, trace.FAA),
		atomicProgram(100, hot, trace.FAA),
	}
	r, s := buildAndRun(t, smallCfg(2), progs)
	if r.Atomics != 200 {
		t.Fatalf("atomics = %d, want 200", r.Atomics)
	}
	var fwds uint64
	for _, d := range s.Directories() {
		fwds += d.Stats.Forwards.Value()
	}
	if fwds == 0 {
		t.Fatal("the contended line never transferred cache to cache")
	}
	if r.ContendedFrac == 0 {
		t.Fatal("no contention detected on a fully contended line")
	}
}

func TestCacheLockingStallsExternalRequests(t *testing.T) {
	// Each atomic is preceded by a slow dependent chain so its eager
	// lock is held long enough for the contending core's forwarded
	// request to arrive inside the locked window. (With short holds
	// the invalidation usually lands after the unlock — exactly the
	// Fig. 8 race that motivates the directory-latency detector.)
	const hot = uint64(0x10000000)
	mk := func() trace.Program {
		var p trace.Program
		for i := 0; i < 60; i++ {
			for j := 0; j < 25; j++ {
				p = append(p, trace.Instr{PC: uint64(0x400000 + 4*j), Kind: trace.IntMul, Src1: 1, Dst: 1})
			}
			p = append(p, trace.Instr{PC: 0x4001f0, Kind: trace.Atomic, Dst: 2, Addr: hot, Size: 8, AtomicOp: trace.FAA})
		}
		return p
	}
	r, _ := buildAndRun(t, smallCfg(2), []trace.Program{mk(), mk()})
	if r.ExtStalls == 0 {
		t.Fatal("no external request ever hit a locked line")
	}
}

func TestFencedAtomicsSlower(t *testing.T) {
	prog := atomicProgram(100, 0x40000000, trace.FAA)
	cfg := smallCfg(1)
	cfg.WarmCaches = false
	fast, _ := buildAndRun(t, cfg, []trace.Program{prog})
	cfg2 := smallCfg(1)
	cfg2.WarmCaches = false
	cfg2.Core.FencedAtomics = true
	slow, _ := buildAndRun(t, cfg2, []trace.Program{prog})
	if slow.Cycles <= fast.Cycles {
		t.Fatalf("fenced atomics not slower: %d vs %d", slow.Cycles, fast.Cycles)
	}
}

func TestSameLineAtomicsSameCore(t *testing.T) {
	// Back-to-back atomics on one line from one core must serialize
	// their locks but still complete.
	var p trace.Program
	for i := 0; i < 30; i++ {
		p = append(p, trace.Instr{
			PC: uint64(0x400000 + 4*i), Kind: trace.Atomic, Dst: 1,
			Addr: 0x40000040, Size: 8, AtomicOp: trace.FAA,
		})
	}
	r, _ := buildAndRun(t, smallCfg(1), []trace.Program{p})
	if r.Atomics != 30 {
		t.Fatalf("atomics = %d, want 30", r.Atomics)
	}
}

func TestManyAtomicsExceedAQ(t *testing.T) {
	// More in-flight atomics than AQ entries: dispatch must stall and
	// recover, never deadlock.
	var p trace.Program
	for i := 0; i < 64; i++ {
		p = append(p, trace.Instr{
			PC: uint64(0x400000 + 4*i), Kind: trace.Atomic, Dst: 1,
			Addr: uint64(0x40000000 + i*64), Size: 8, AtomicOp: trace.FAA,
		})
	}
	r, _ := buildAndRun(t, smallCfg(1), []trace.Program{p})
	if r.Atomics != 64 {
		t.Fatalf("atomics = %d, want 64", r.Atomics)
	}
}

func TestRoWSplitsPolicies(t *testing.T) {
	// A workload mixing contended and private atomics under RoW must
	// issue some of each kind.
	cfg := config.Default()
	cfg.NumCores = 8
	cfg.Policy = config.PolicyRoW
	cfg.MaxCycles = 50_000_000
	progs := workload.Generate(workload.MustGet("sps"), 8, 6000, 3)
	s, err := New(cfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.EagerIssued == 0 || r.LazyIssued == 0 {
		t.Fatalf("RoW did not split: eager=%d lazy=%d", r.EagerIssued, r.LazyIssued)
	}
	if r.PredAccuracy == 0 {
		t.Fatal("predictor accuracy not measured")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		cfg := config.Default()
		cfg.NumCores = 4
		cfg.Policy = config.PolicyRoW
		cfg.MaxCycles = 50_000_000
		progs := workload.Generate(workload.MustGet("sps"), 4, 3000, 11)
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
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Committed != b.Committed || a.ContendedFrac != b.ContendedFrac {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestBranchMispredictsCost(t *testing.T) {
	mk := func(taken func(i int) bool) trace.Program {
		var p trace.Program
		for i := 0; i < 2000; i++ {
			p = append(p, trace.Instr{PC: 0x400000, Kind: trace.IntOp, Dst: 1})
			p = append(p, trace.Instr{PC: 0x400004, Kind: trace.Branch, Src1: 1, Taken: taken(i)})
		}
		return p
	}
	biased, _ := buildAndRun(t, smallCfg(1), []trace.Program{mk(func(int) bool { return true })})
	// Pattern chosen to defeat both bimodal and short-history gshare.
	hard, _ := buildAndRun(t, smallCfg(1), []trace.Program{mk(func(i int) bool {
		return (i*2654435761)&8 != 0
	})})
	if hard.Mispredicts <= biased.Mispredicts {
		t.Fatalf("mispredicts: hard=%d biased=%d", hard.Mispredicts, biased.Mispredicts)
	}
	if hard.Cycles <= biased.Cycles {
		t.Fatalf("mispredicts cost nothing: %d vs %d", hard.Cycles, biased.Cycles)
	}
}

func TestLQSquashOnRemoteWrite(t *testing.T) {
	// Core 1 writes a line that core 0 reads speculatively behind
	// slow older loads: core 0 must occasionally squash.
	shared := uint64(0x18000000)
	var p0 trace.Program
	for i := 0; i < 200; i++ {
		p0 = append(p0,
			// Slow older load (cold, private).
			trace.Instr{PC: 0x400000, Kind: trace.Load, Dst: 1, Addr: uint64(0x40000000 + i*64), Size: 8},
			// Speculative young load of the shared line.
			trace.Instr{PC: 0x400004, Kind: trace.Load, Dst: 2, Addr: shared, Size: 8},
			trace.Instr{PC: 0x400008, Kind: trace.IntOp, Src1: 2, Dst: 3},
		)
	}
	var p1 trace.Program
	for i := 0; i < 300; i++ {
		p1 = append(p1, trace.Instr{PC: 0x400100, Kind: trace.Store, Src1: 1, Addr: shared, Size: 8})
		p1 = append(p1, trace.Instr{PC: 0x400104, Kind: trace.IntOp, Dst: 1})
	}
	cfg := smallCfg(2)
	cfg.WarmCaches = false
	r, _ := buildAndRun(t, cfg, []trace.Program{p0, p1})
	if r.LQSquashes == 0 {
		t.Fatal("no TSO squash despite racing reads and writes")
	}
}

func TestMemoryDependenceViolationLearned(t *testing.T) {
	// A load that aliases an older store whose address resolves late
	// must first violate, then be predicted by the store sets.
	var p trace.Program
	for i := 0; i < 100; i++ {
		p = append(p,
			// The store's address depends on a slow chain.
			trace.Instr{PC: 0x400000, Kind: trace.IntMul, Src1: 4, Dst: 4},
			trace.Instr{PC: 0x400004, Kind: trace.IntMul, Src1: 4, Dst: 4},
			trace.Instr{PC: 0x400008, Kind: trace.Store, Src1: 1, Src2: 4, Addr: 0x40000200, Size: 8},
			// The load to the same line has no dependencies: it wants
			// to issue immediately.
			trace.Instr{PC: 0x40000c, Kind: trace.Load, Dst: 2, Addr: 0x40000200, Size: 8},
			trace.Instr{PC: 0x400010, Kind: trace.IntOp, Src1: 2, Dst: 3},
		)
	}
	r, _ := buildAndRun(t, smallCfg(1), []trace.Program{p})
	if r.SSViolations == 0 {
		t.Fatal("no memory-order violation ever detected")
	}
	if r.SSViolations > 50 {
		t.Fatalf("store sets never learned: %d violations in 100 iterations", r.SSViolations)
	}
}

// TestQuickNeverDeadlocks: random contended workloads — including the
// lock kernels, the historically riskiest traffic — on small core
// counts always run to completion under every policy.
func TestQuickNeverDeadlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("long property test")
	}
	workloads := []string{"pc", "cq", "ticket", "tas", "barrier"}
	policies := []config.AtomicPolicy{
		config.PolicyEager, config.PolicyLazy, config.PolicyRoW,
	}
	f := func(seed uint64, polPick, wlPick uint8) bool {
		wl := workloads[int(wlPick)%len(workloads)]
		cfg := config.Default()
		cfg.NumCores = 4
		cfg.Policy = policies[int(polPick)%len(policies)]
		cfg.MaxCycles = 50_000_000
		progs := workload.Generate(workload.MustGet(wl), 4, 1500, seed)
		s, err := New(cfg, progs)
		if err != nil {
			return false
		}
		r, err := s.Run()
		if err != nil {
			t.Logf("seed=%d wl=%s policy=%v: %v", seed, wl, cfg.Policy, err)
			return false
		}
		return r.Committed >= 4*1500
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Package workload generates the synthetic instruction traces that
// stand in for the paper's benchmark suites (Splash-4, PARSEC 3.0 and
// the six fine-grain synchronization workloads).
//
// Each workload is a parameterized generator tuned to the published
// characteristics that drive the eager/lazy trade-off: atomic
// intensity (Fig. 5's atomics per 10 kilo-instructions), the fraction
// of atomics touching contended (shared, hot) cachelines, atomic
// locality (a store to the same line right before the atomic — the
// cq/tatp/barnes pattern of Section VI), private working-set size
// (cache-miss behaviour) and dependency-chain depth (how much work
// can overlap an atomic).
//
// Generation is deterministic: the same name/seed/core/length always
// yields the same trace, so experiments are reproducible.
package workload

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"rowsim/internal/trace"
	"rowsim/internal/xrand"
)

// Params fully describes one synthetic workload.
type Params struct {
	Name string
	// Descr is a one-line description of the real workload this
	// stands in for.
	Descr string

	// AtomicsPer10K is the target atomic intensity.
	AtomicsPer10K float64
	// SharedFrac is the fraction of atomic sites that target the hot
	// shared lines (contended); the rest target private data.
	SharedFrac float64
	// HotLines is the number of distinct contended cachelines.
	HotLines int
	// StoreBefore is the probability that a contended atomic is
	// immediately preceded by a regular store to the same line
	// (atomic locality).
	StoreBefore float64
	// WorkingSet is the private data region size in bytes per core.
	WorkingSet int
	// AtomicWS sizes the private region non-contended atomics target
	// (0 = WorkingSet). canneal-style workloads hit small, cached
	// data with regular accesses while their atomics roam a huge
	// array and miss — which is exactly when eager execution hides
	// the most latency.
	AtomicWS int
	// ColdAtomics marks the atomic region as a capacity-missing
	// region: the warm-start must not pre-install it (in steady state
	// it does not fit in any cache, so its accesses always miss).
	ColdAtomics bool
	// SharedData is a separate shared (non-atomic) payload region in
	// bytes; a SharedAccFrac fraction of plain loads/stores touch it.
	SharedData    int
	SharedAccFrac float64

	// Instruction mix (the remainder is ALU work).
	LoadFrac, StoreFrac, BranchFrac, FPFrac float64

	// DepMean is the mean register-dependency distance: small values
	// make long serial chains (little ILP around atomics), large
	// values leave many independent instructions.
	DepMean float64

	// AddrIndep is the probability that a memory access's address has
	// no register dependency (an induction variable or hoisted index):
	// such accesses can issue as soon as resources allow, which is
	// what gives real workloads their memory-level parallelism.
	AddrIndep float64

	// BiasedBranches is the fraction of branch sites with a strongly
	// biased outcome (the rest are random, i.e. hard to predict).
	BiasedBranches float64

	// AtomicOp is the RMW flavour the workload uses.
	AtomicOp trace.AtomicKind

	// MixedSites is the probability that an atomic site occasionally
	// behaves as the opposite contention class (predictor noise).
	MixedSites float64

	// DefaultInstrs is the per-core trace length used when the caller
	// passes 0.
	DefaultInstrs int

	// Synth selects a structured synchronization-algorithm generator
	// ("tas", "ticket", "barrier") instead of the statistical
	// template; the fields below parameterize it.
	Synth synthKind
	// SpinMean is the mean number of spin iterations per acquisition.
	SpinMean float64
	// CriticalLen is the critical-section length in instructions.
	CriticalLen int
	// NonCriticalLen is the private work between synchronizations.
	NonCriticalLen int
}

// address-space layout (virtual; the simulator stores no data).
const (
	hotBase     = 0x1000_0000 // contended atomic lines
	metaBase    = 0x1400_0000 // write-shared metadata lines (never read)
	sharedBase  = 0x1800_0000 // shared payload region
	privateBase = 0x4000_0000 // per-core private regions
	privateStep = 0x0800_0000 // 128 MiB apart
	// atomicRegionOff places each core's private-atomic region in the
	// upper half of its window, disjoint from the load/store working
	// set, so the warm-start can tell them apart.
	atomicRegionOff = 0x0400_0000
	codeBase        = 0x0040_0000
	lineBytes       = 64
)

// Region names the part of the address layout addr falls in:
// "hot-atomic", "shared-metadata", "shared-payload", "private", or
// "other" below the hot lines.
func Region(addr uint64) string {
	switch {
	case addr >= privateBase:
		return "private"
	case addr >= sharedBase:
		return "shared-payload"
	case addr >= metaBase:
		return "shared-metadata"
	case addr >= hotBase:
		return "hot-atomic"
	default:
		return "other"
	}
}

// siteKind classifies a static instruction slot in the template.
type siteKind uint8

const (
	siteALU siteKind = iota
	siteFP
	siteLoad
	siteStore
	siteBranch
	siteAtomic
	siteCompanionStore // store-before-atomic slot (conditionally emitted)
)

// site is one static instruction in the synthetic code template. The
// template gives the trace stable PCs, which the PC-indexed branch
// and contention predictors rely on.
type site struct {
	kind   siteKind
	pc     uint64
	hot    bool    // atomic site targeting the contended lines
	stream bool    // load/store site with a sequential (strided) pattern
	bias   float64 // branch taken probability
	shared bool    // load/store site touching the shared payload
}

// template is the per-workload static code layout, shared by all
// cores (SPMD, as in the paper's 32-thread runs).
type template struct {
	sites []site
	p     Params
}

// buildTemplate synthesizes the static code for a workload. The
// template is sized so it contains at least minAtomicSites atomic
// sites at the target intensity.
func buildTemplate(p Params, seed uint64) *template {
	const minAtomicSites = 4
	length := 2048
	if p.AtomicsPer10K > 0 {
		need := int(float64(minAtomicSites) * 10000 / p.AtomicsPer10K)
		if need > length {
			length = need
		}
	}
	if length > 32768 {
		length = 32768
	}
	nAtomic := int(float64(length)*p.AtomicsPer10K/10000 + 0.5)
	if nAtomic < 1 && p.AtomicsPer10K > 0 {
		nAtomic = 1
	}

	rng := xrand.New(seed ^ 0xabcdef12345678)
	t := &template{p: p}
	atomicAt := make(map[int]bool, nAtomic)
	for len(atomicAt) < nAtomic {
		// Position 0 is reserved so a companion store fits before.
		pos := 1 + rng.Intn(length-1)
		atomicAt[pos] = true
	}
	hotLeft := int(float64(nAtomic)*p.SharedFrac + 0.5)

	// Deterministic iteration order for reproducibility.
	positions := make([]int, 0, nAtomic)
	for pos := range atomicAt {
		positions = append(positions, pos)
	}
	sort.Ints(positions)

	hotSite := make(map[int]bool, nAtomic)
	for _, pos := range positions {
		if hotLeft > 0 {
			hotSite[pos] = true
			hotLeft--
		}
	}

	for i := 0; i < length; i++ {
		pc := uint64(codeBase + 4*i)
		switch {
		case atomicAt[i]:
			t.sites = append(t.sites, site{kind: siteAtomic, pc: pc, hot: hotSite[i]})
		case atomicAt[i+1] && hotSite[i+1] && p.StoreBefore > 0:
			t.sites = append(t.sites, site{kind: siteCompanionStore, pc: pc})
		default:
			r := rng.Float64()
			switch {
			case r < p.LoadFrac:
				t.sites = append(t.sites, site{
					kind:   siteLoad,
					pc:     pc,
					stream: rng.Bool(0.35),
					shared: rng.Bool(p.SharedAccFrac),
				})
			case r < p.LoadFrac+p.StoreFrac:
				t.sites = append(t.sites, site{
					kind:   siteStore,
					pc:     pc,
					stream: rng.Bool(0.35),
					shared: rng.Bool(p.SharedAccFrac),
				})
			case r < p.LoadFrac+p.StoreFrac+p.BranchFrac:
				bias := 0.5
				if rng.Bool(p.BiasedBranches) {
					bias = 0.97
				}
				t.sites = append(t.sites, site{kind: siteBranch, pc: pc, bias: bias})
			case r < p.LoadFrac+p.StoreFrac+p.BranchFrac+p.FPFrac:
				t.sites = append(t.sites, site{kind: siteFP, pc: pc})
			default:
				t.sites = append(t.sites, site{kind: siteALU, pc: pc})
			}
		}
	}
	return t
}

// generator emits a dynamic trace for one core from the template.
type generator struct {
	t    *template
	rng  *xrand.RNG
	core int

	recentRegs [16]trace.Reg // ring of recently written registers
	regCursor  int
	nextDst    int
	nextLeaf   int
	lastLeaf   trace.Reg

	streamPos map[uint64]uint64 // per-site streaming counters
}

func newGenerator(t *template, core int, seed uint64) *generator {
	g := &generator{
		t:         t,
		rng:       xrand.New(seed + uint64(core)*0x9e3779b97f4a7c15 + 1),
		core:      core,
		streamPos: make(map[uint64]uint64),
	}
	for i := range g.recentRegs {
		g.recentRegs[i] = trace.Reg(1 + i)
	}
	g.nextDst = len(g.recentRegs)
	return g
}

// pickSrc selects a source register at roughly DepMean instructions of
// dependency distance.
func (g *generator) pickSrc() trace.Reg {
	d := g.rng.Geometric(g.t.p.DepMean)
	if d > len(g.recentRegs) {
		d = len(g.recentRegs)
	}
	idx := (g.regCursor - d + 2*len(g.recentRegs)) % len(g.recentRegs)
	return g.recentRegs[idx]
}

// pickAddrSrc selects the address-generation dependency of a memory
// access: none for hoisted/induction addresses, a register otherwise.
func (g *generator) pickAddrSrc() trace.Reg {
	if g.rng.Bool(g.t.p.AddrIndep) {
		return 0
	}
	return g.pickSrc()
}

// maybeSrc returns a register dependency half the time (two-operand
// ops are common but not universal).
func (g *generator) maybeSrc() trace.Reg {
	if g.rng.Bool(0.5) {
		return 0
	}
	return g.pickSrc()
}

// allocDst claims the next destination register and publishes it to
// the dependence window (later instructions may consume it).
func (g *generator) allocDst() trace.Reg {
	r := trace.Reg(1 + g.nextDst%44)
	g.nextDst++
	g.regCursor = (g.regCursor + 1) % len(g.recentRegs)
	g.recentRegs[g.regCursor] = r
	return r
}

// allocLeafDst claims a destination register that is NOT published to
// the dependence window. Load and RMW results behave like this in
// real code: consumed by one or two nearby instructions, then dead —
// a long-latency miss must not transitively poison every later chain.
func (g *generator) allocLeafDst() trace.Reg {
	r := trace.Reg(45 + g.nextLeaf%16)
	g.nextLeaf++
	g.lastLeaf = r
	return r
}

// consumeLeaf returns the most recent leaf register once (so one ALU
// op depends on the last load), then stops handing it out.
func (g *generator) consumeLeaf() trace.Reg {
	r := g.lastLeaf
	g.lastLeaf = 0
	return r
}

func (g *generator) privateAddr() uint64 {
	base := uint64(privateBase) + uint64(g.core)*privateStep
	return base + uint64(g.rng.Intn(g.t.p.WorkingSet))&^7
}

func (g *generator) privateAtomicAddr() uint64 {
	ws := g.t.p.AtomicWS
	if ws <= 0 {
		ws = g.t.p.WorkingSet
	}
	base := uint64(privateBase) + uint64(g.core)*privateStep + atomicRegionOff
	return base + uint64(g.rng.Intn(ws))&^(lineBytes-1)
}

// WarmFilter returns the warm-start predicate for a workload: lines
// in a cold atomic region are never pre-installed.
func WarmFilter(p Params) func(core int, line uint64) bool {
	if !p.ColdAtomics {
		return nil
	}
	return func(core int, line uint64) bool {
		off := line & (privateStep - 1)
		return line < privateBase || off < atomicRegionOff
	}
}

// sharedAddr returns a read address anywhere in the shared payload
// (consumers read what any producer wrote).
func (g *generator) sharedAddr() uint64 {
	if g.t.p.SharedData <= 0 {
		return g.privateAddr()
	}
	return uint64(sharedBase) + uint64(g.rng.Intn(g.t.p.SharedData))&^7
}

// sharedWriteAddr returns a write address within this core's slice of
// the shared payload: real communication patterns (queue slots,
// per-thread buckets) have one writer per line, so writes do not
// ping-pong against each other and readers are invalidated only by
// the producing core.
func (g *generator) sharedWriteAddr() uint64 {
	if g.t.p.SharedData <= 0 {
		return g.privateAddr()
	}
	slice := g.t.p.SharedData / 32
	if slice < lineBytes {
		slice = lineBytes
	}
	base := uint64(sharedBase) + uint64(g.core%32)*uint64(slice)
	return base + uint64(g.rng.Intn(slice))&^7
}

func (g *generator) hotAddr() uint64 {
	return uint64(hotBase) + uint64(g.rng.Intn(g.t.p.HotLines))*lineBytes
}

// metaAddr returns a write-shared metadata line (queue bookkeeping):
// all cores store to these lines, nobody loads them, so their drains
// contend for ownership without triggering speculative-load squashes.
func (g *generator) metaAddr() uint64 {
	n := g.t.p.HotLines
	if n < 2 {
		n = 2
	}
	return uint64(metaBase) + uint64(g.rng.Intn(n))*lineBytes
}

func (g *generator) streamAddr(pc uint64, shared bool) uint64 {
	pos, ok := g.streamPos[pc]
	if !ok {
		// Scatter the streams: each site starts at its own offset so
		// concurrent streams do not collide on the same lines.
		h := (pc*0x9e3779b97f4a7c15 + uint64(g.core)) >> 16
		pos = (h % 4096) * 4096
	}
	g.streamPos[pc] = pos + 8
	if shared {
		if g.t.p.SharedData > 0 {
			return uint64(sharedBase) + pos%uint64(g.t.p.SharedData)&^7
		}
	}
	base := uint64(privateBase) + uint64(g.core)*privateStep
	return base + pos%uint64(g.t.p.WorkingSet)&^7
}

// emit appends the dynamic instruction(s) for one template site.
func (g *generator) emit(prog trace.Program, s *site) trace.Program {
	p := g.t.p
	switch s.kind {
	case siteALU:
		src2 := g.consumeLeaf()
		if src2 == 0 {
			src2 = g.maybeSrc()
		}
		return append(prog, trace.Instr{
			PC: s.pc, Kind: trace.IntOp,
			Src1: g.pickSrc(), Src2: src2, Dst: g.allocDst(),
		})
	case siteFP:
		src2 := g.consumeLeaf()
		if src2 == 0 {
			src2 = g.maybeSrc()
		}
		return append(prog, trace.Instr{
			PC: s.pc, Kind: trace.FPOp,
			Src1: g.pickSrc(), Src2: src2, Dst: g.allocDst(),
		})
	case siteLoad:
		addr := g.dataAddr(s)
		return append(prog, trace.Instr{
			PC: s.pc, Kind: trace.Load, Src1: g.pickAddrSrc(), Dst: g.allocLeafDst(),
			Addr: addr, Size: 8,
		})
	case siteStore:
		addr := g.dataAddr(s)
		return append(prog, trace.Instr{
			PC: s.pc, Kind: trace.Store, Src1: g.pickSrc(), Src2: g.pickAddrSrc(),
			Addr: addr, Size: 8,
		})
	case siteBranch:
		return append(prog, trace.Instr{
			PC: s.pc, Kind: trace.Branch, Src1: g.pickSrc(),
			Taken: g.rng.Bool(s.bias),
		})
	case siteAtomic:
		hot := s.hot
		if p.MixedSites > 0 && g.rng.Bool(p.MixedSites) {
			hot = !hot
		}
		var addr uint64
		if hot {
			addr = g.hotAddr()
		} else {
			addr = g.privateAtomicAddr()
		}
		atomicAddrSrc := g.pickAddrSrc()
		if hot && p.StoreBefore > 0 && g.rng.Bool(p.StoreBefore) {
			// The atomic-locality pattern (cq/tatp/barnes): write the
			// line, write the payload, then RMW the first line. Under
			// lazy execution the payload store drains between the
			// same-line store's write and the atomic's issue; during
			// that window a contending core steals the line and the
			// atomic re-acquires it, exposing a full miss. An eager
			// atomic instead locks the line while the store still
			// owns it (its GetX merges with the store's exclusive
			// prefetch). PC offsets are byte-level, so they do not
			// collide with neighbouring 4-aligned sites.
			prog = append(prog,
				trace.Instr{
					PC: s.pc - 3, Kind: trace.Store, Src1: g.pickSrc(),
					Addr: addr, Size: 8,
				},
				trace.Instr{
					PC: s.pc - 2, Kind: trace.Store, Src1: g.pickSrc(),
					Addr: g.metaAddr(), Size: 8,
				},
			)
		}
		return append(prog, trace.Instr{
			PC: s.pc, Kind: trace.Atomic, Src1: atomicAddrSrc, Dst: g.allocLeafDst(),
			Addr: addr, Size: 8, AtomicOp: p.AtomicOp,
		})
	case siteCompanionStore:
		// Emitted with the atomic itself; skip as a standalone site.
		return prog
	}
	panic(fmt.Sprintf("workload: unknown site kind %d", s.kind))
}

func (g *generator) dataAddr(s *site) uint64 {
	if s.stream {
		return g.streamAddr(s.pc, s.shared)
	}
	if s.shared {
		if s.kind == siteStore {
			return g.sharedWriteAddr()
		}
		return g.sharedAddr()
	}
	return g.privateAddr()
}

// Generate produces per-core programs of about instrs instructions
// each (0 uses the workload default). All cores share the template
// (same PCs) but draw independent address/outcome streams.
func Generate(p Params, cores, instrs int, seed uint64) []trace.Program {
	if instrs <= 0 {
		instrs = p.DefaultInstrs
	}
	if p.Synth != synthNone {
		return generateSynth(p, cores, instrs, seed)
	}
	t := buildTemplate(p, seed)
	return generateCores(cores, func(c int) trace.Program {
		g := newGenerator(t, c, seed)
		prog := make(trace.Program, 0, instrs+instrs/16)
		for len(prog) < instrs {
			for i := range t.sites {
				prog = g.emit(prog, &t.sites[i])
				if len(prog) >= instrs {
					break
				}
			}
		}
		return prog
	})
}

// generateCores returns one program a core, core c's made by gen(c), on
// up to GOMAXPROCS workers that take the cores in turn. A core's
// generator draws from its own RNG stream and only reads the shared
// template, so its program is the same whichever worker makes it, and
// each worker writes only the slots of the cores it took.
func generateCores(cores int, gen func(c int) trace.Program) []trace.Program {
	progs := make([]trace.Program, cores)
	workers := min(runtime.GOMAXPROCS(0), cores)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for c := int(next.Add(1) - 1); c < cores; c = int(next.Add(1) - 1) {
				progs[c] = gen(c)
			}
		}()
	}
	wg.Wait()
	return progs
}

package workload

import (
	"fmt"
	"sort"

	"rowsim/internal/trace"
)

// The named workloads. Parameters are tuned so the synthetic traces
// reproduce the published characteristics that drive each paper
// result: Fig. 5's atomic intensity and contention fraction, the
// locality behaviour of cq/tatp/barnes (Section VI), and the
// ILP-window shapes of Fig. 4.
var registry = map[string]Params{
	// --- PARSEC 3.0 stand-ins -------------------------------------
	"canneal": {
		Descr:         "PARSEC canneal: random-access annealing; frequent non-contended atomics that miss",
		AtomicsPer10K: 25, SharedFrac: 0.02, HotLines: 4,
		WorkingSet: 512 << 10, AtomicWS: 16 << 20, ColdAtomics: true, SharedData: 1 << 20, SharedAccFrac: 0.05,
		LoadFrac: 0.30, StoreFrac: 0.12, BranchFrac: 0.12, FPFrac: 0.05,
		DepMean: 10, AddrIndep: 0.8, BiasedBranches: 0.92, AtomicOp: trace.SWAP,
		DefaultInstrs: 24000,
	},
	"freqmine": {
		Descr:         "PARSEC freqmine: FP-growth mining; non-contended atomics over a large heap",
		AtomicsPer10K: 20, SharedFrac: 0.05, HotLines: 4,
		WorkingSet: 512 << 10, AtomicWS: 8 << 20, ColdAtomics: true, SharedData: 1 << 20, SharedAccFrac: 0.05,
		LoadFrac: 0.32, StoreFrac: 0.14, BranchFrac: 0.14, FPFrac: 0.02,
		DepMean: 8, AddrIndep: 0.8, BiasedBranches: 0.9, AtomicOp: trace.FAA,
		DefaultInstrs: 24000,
	},
	"streamcluster": {
		Descr:         "PARSEC streamcluster: barrier-heavy clustering; moderately contended atomics, little ILP",
		AtomicsPer10K: 12, SharedFrac: 0.6, HotLines: 4,
		WorkingSet: 4 << 20, SharedData: 2 << 20, SharedAccFrac: 0.15,
		LoadFrac: 0.34, StoreFrac: 0.10, BranchFrac: 0.10, FPFrac: 0.12,
		DepMean: 3, AddrIndep: 0.6, BiasedBranches: 0.95, AtomicOp: trace.FAA,
		DefaultInstrs: 24000,
	},
	// --- Splash-4 stand-ins ---------------------------------------
	"barnes": {
		Descr:         "Splash-4 barnes: N-body; contended atomics with store→atomic locality",
		AtomicsPer10K: 12, SharedFrac: 0.5, HotLines: 8, StoreBefore: 0.55,
		WorkingSet: 2 << 20, SharedData: 2 << 20, SharedAccFrac: 0.1,
		LoadFrac: 0.30, StoreFrac: 0.12, BranchFrac: 0.12, FPFrac: 0.15,
		DepMean: 6, BiasedBranches: 0.92, AtomicOp: trace.FAA, MixedSites: 0.08,
		DefaultInstrs: 24000,
	},
	"raytrace": {
		Descr:         "Splash-4 raytrace: ray tracing; contended ticket counters, short dependency windows",
		AtomicsPer10K: 25, SharedFrac: 0.8, HotLines: 4,
		WorkingSet: 2 << 20, SharedData: 2 << 20, SharedAccFrac: 0.1,
		LoadFrac: 0.32, StoreFrac: 0.10, BranchFrac: 0.12, FPFrac: 0.12,
		DepMean: 3, AddrIndep: 0.7, BiasedBranches: 0.9, AtomicOp: trace.FAA, MixedSites: 0.1,
		DefaultInstrs: 24000,
	},
	"fmm": {
		Descr:         "Splash-4 fmm: fast multipole; atomic-poor, insensitive",
		AtomicsPer10K: 2, SharedFrac: 0.3, HotLines: 8,
		WorkingSet: 4 << 20, SharedData: 1 << 20, SharedAccFrac: 0.05,
		LoadFrac: 0.30, StoreFrac: 0.12, BranchFrac: 0.10, FPFrac: 0.2,
		DepMean: 8, BiasedBranches: 0.93, AtomicOp: trace.FAA,
		DefaultInstrs: 24000,
	},
	"volrend": {
		Descr:         "Splash-4 volrend: volume rendering; atomic-poor, insensitive",
		AtomicsPer10K: 3, SharedFrac: 0.3, HotLines: 8,
		WorkingSet: 2 << 20, SharedData: 1 << 20, SharedAccFrac: 0.05,
		LoadFrac: 0.32, StoreFrac: 0.10, BranchFrac: 0.12, FPFrac: 0.12,
		DepMean: 8, BiasedBranches: 0.9, AtomicOp: trace.FAA,
		DefaultInstrs: 24000,
	},
	"radiosity": {
		Descr:         "Splash-4 radiosity: light transport; atomic-poor, insensitive",
		AtomicsPer10K: 3, SharedFrac: 0.4, HotLines: 8,
		WorkingSet: 2 << 20, SharedData: 1 << 20, SharedAccFrac: 0.08,
		LoadFrac: 0.30, StoreFrac: 0.12, BranchFrac: 0.12, FPFrac: 0.15,
		DepMean: 8, BiasedBranches: 0.9, AtomicOp: trace.FAA,
		DefaultInstrs: 24000,
	},
	// --- fine-grain synchronization suite stand-ins ----------------
	"cq": {
		Descr:         "concurrent queue: contended but locality-friendly (store→atomic on the same line)",
		AtomicsPer10K: 50, SharedFrac: 0.7, HotLines: 4, StoreBefore: 0.9,
		WorkingSet: 256 << 10, SharedData: 1 << 20, SharedAccFrac: 0.08,
		LoadFrac: 0.28, StoreFrac: 0.16, BranchFrac: 0.10,
		DepMean: 6, AddrIndep: 0.25, BiasedBranches: 0.95, AtomicOp: trace.CAS,
		DefaultInstrs: 24000,
	},
	"tatp": {
		Descr:         "TATP telecom benchmark: contended atomics, partial locality",
		AtomicsPer10K: 30, SharedFrac: 0.3, HotLines: 6, StoreBefore: 0.7,
		WorkingSet: 1 << 20, SharedData: 2 << 20, SharedAccFrac: 0.15,
		LoadFrac: 0.30, StoreFrac: 0.14, BranchFrac: 0.12,
		DepMean: 8, BiasedBranches: 0.9, AtomicOp: trace.CAS, MixedSites: 0.1,
		DefaultInstrs: 24000,
	},
	"tpcc": {
		Descr:         "TPC-C order processing: high-intensity contended atomics",
		AtomicsPer10K: 70, SharedFrac: 0.8, HotLines: 6,
		WorkingSet: 2 << 20, AtomicWS: 8 << 20, ColdAtomics: true, SharedData: 2 << 20, SharedAccFrac: 0.1,
		LoadFrac: 0.30, StoreFrac: 0.14, BranchFrac: 0.12,
		DepMean: 8, BiasedBranches: 0.9, AtomicOp: trace.CAS, MixedSites: 0.05,
		DefaultInstrs: 24000,
	},
	"sps": {
		Descr:         "shared counters (sps): highly contended fetch-and-add",
		AtomicsPer10K: 90, SharedFrac: 0.9, HotLines: 2,
		WorkingSet: 3 << 20, AtomicWS: 8 << 20, ColdAtomics: true, SharedData: 512 << 10, SharedAccFrac: 0.02,
		LoadFrac: 0.28, StoreFrac: 0.12, BranchFrac: 0.10,
		DepMean: 8, BiasedBranches: 0.95, AtomicOp: trace.FAA,
		DefaultInstrs: 24000,
	},
	"pc": {
		Descr:         "producer-consumer queue: the most contended workload",
		AtomicsPer10K: 110, SharedFrac: 0.95, HotLines: 2,
		WorkingSet: 2 << 20, AtomicWS: 8 << 20, ColdAtomics: true, SharedData: 1 << 20, SharedAccFrac: 0.05,
		LoadFrac: 0.28, StoreFrac: 0.14, BranchFrac: 0.10,
		DepMean: 8, BiasedBranches: 0.95, AtomicOp: trace.FAA,
		DefaultInstrs: 24000,
	},
	// --- atomic-poor fillers (for the all-applications average) ----
	"blackscholes": {
		Descr:         "PARSEC blackscholes: embarrassingly parallel, nearly atomic-free",
		AtomicsPer10K: 0.3, SharedFrac: 0.2, HotLines: 2,
		WorkingSet: 1 << 20, LoadFrac: 0.30, StoreFrac: 0.12, BranchFrac: 0.08, FPFrac: 0.3,
		DepMean: 8, BiasedBranches: 0.97, AtomicOp: trace.FAA,
		DefaultInstrs: 16000,
	},
	"swaptions": {
		Descr:         "PARSEC swaptions: Monte-Carlo pricing, nearly atomic-free",
		AtomicsPer10K: 0.2, SharedFrac: 0.2, HotLines: 2,
		WorkingSet: 512 << 10, LoadFrac: 0.28, StoreFrac: 0.12, BranchFrac: 0.10, FPFrac: 0.3,
		DepMean: 6, BiasedBranches: 0.95, AtomicOp: trace.FAA,
		DefaultInstrs: 16000,
	},
	"fluidanimate": {
		Descr:         "PARSEC fluidanimate: particle simulation, few atomics",
		AtomicsPer10K: 0.8, SharedFrac: 0.4, HotLines: 4,
		WorkingSet: 4 << 20, SharedData: 1 << 20, SharedAccFrac: 0.1,
		LoadFrac: 0.32, StoreFrac: 0.14, BranchFrac: 0.10, FPFrac: 0.25,
		DepMean: 6, BiasedBranches: 0.93, AtomicOp: trace.FAA,
		DefaultInstrs: 16000,
	},
	"ocean": {
		Descr:         "Splash-4 ocean: stencil grids, few atomics",
		AtomicsPer10K: 0.5, SharedFrac: 0.3, HotLines: 4,
		WorkingSet: 8 << 20, SharedData: 2 << 20, SharedAccFrac: 0.15,
		LoadFrac: 0.36, StoreFrac: 0.16, BranchFrac: 0.08, FPFrac: 0.25,
		DepMean: 10, BiasedBranches: 0.97, AtomicOp: trace.FAA,
		DefaultInstrs: 16000,
	},
	"radix": {
		Descr:         "Splash-4 radix sort: streaming, few atomics",
		AtomicsPer10K: 0.6, SharedFrac: 0.5, HotLines: 4,
		WorkingSet: 8 << 20, LoadFrac: 0.34, StoreFrac: 0.18, BranchFrac: 0.08,
		DepMean: 10, BiasedBranches: 0.95, AtomicOp: trace.FAA,
		DefaultInstrs: 16000,
	},
	"lu": {
		Descr:         "Splash-4 lu: dense factorization, few atomics",
		AtomicsPer10K: 0.4, SharedFrac: 0.3, HotLines: 2,
		WorkingSet: 2 << 20, LoadFrac: 0.32, StoreFrac: 0.14, BranchFrac: 0.08, FPFrac: 0.3,
		DepMean: 12, BiasedBranches: 0.97, AtomicOp: trace.FAA,
		DefaultInstrs: 16000,
	},
	"bodytrack": {
		Descr:         "PARSEC bodytrack: particle-filter vision, sparse atomics",
		AtomicsPer10K: 1.5, SharedFrac: 0.4, HotLines: 4,
		WorkingSet: 2 << 20, SharedData: 1 << 20, SharedAccFrac: 0.1,
		LoadFrac: 0.30, StoreFrac: 0.12, BranchFrac: 0.12, FPFrac: 0.25,
		DepMean: 7, BiasedBranches: 0.92, AtomicOp: trace.FAA,
		DefaultInstrs: 16000,
	},
	"dedup": {
		Descr:         "PARSEC dedup: pipelined compression, hash-bucket atomics",
		AtomicsPer10K: 2.5, SharedFrac: 0.5, HotLines: 8, StoreBefore: 0.3,
		WorkingSet: 4 << 20, SharedData: 2 << 20, SharedAccFrac: 0.2,
		LoadFrac: 0.34, StoreFrac: 0.16, BranchFrac: 0.10,
		DepMean: 8, BiasedBranches: 0.9, AtomicOp: trace.CAS,
		DefaultInstrs: 16000,
	},
	"ferret": {
		Descr:         "PARSEC ferret: similarity search pipeline, queue atomics",
		AtomicsPer10K: 2, SharedFrac: 0.6, HotLines: 4, StoreBefore: 0.4,
		WorkingSet: 2 << 20, SharedData: 1 << 20, SharedAccFrac: 0.15,
		LoadFrac: 0.32, StoreFrac: 0.12, BranchFrac: 0.12, FPFrac: 0.1,
		DepMean: 7, BiasedBranches: 0.9, AtomicOp: trace.CAS,
		DefaultInstrs: 16000,
	},
	"x264": {
		Descr:         "PARSEC x264: video encoding, nearly atomic-free",
		AtomicsPer10K: 0.3, SharedFrac: 0.3, HotLines: 2,
		WorkingSet: 4 << 20, SharedData: 2 << 20, SharedAccFrac: 0.1,
		LoadFrac: 0.34, StoreFrac: 0.16, BranchFrac: 0.10, FPFrac: 0.05,
		DepMean: 9, BiasedBranches: 0.9, AtomicOp: trace.FAA,
		DefaultInstrs: 16000,
	},
	"water": {
		Descr:         "Splash-4 water: molecular dynamics, few atomics",
		AtomicsPer10K: 1, SharedFrac: 0.4, HotLines: 4,
		WorkingSet: 1 << 20, SharedData: 512 << 10, SharedAccFrac: 0.08,
		LoadFrac: 0.30, StoreFrac: 0.12, BranchFrac: 0.08, FPFrac: 0.35,
		DepMean: 9, BiasedBranches: 0.96, AtomicOp: trace.FAA,
		DefaultInstrs: 16000,
	},
	// --- synchronization-algorithm kernels --------------------------
	"tas": {
		Descr:          "test-and-set spinlock: SWAP-hammering acquisitions around short critical sections",
		Synth:          synthTAS,
		SpinMean:       3,
		CriticalLen:    12,
		NonCriticalLen: 60,
		HotLines:       2,
		SharedData:     64 << 10, SharedAccFrac: 1,
		WorkingSet: 512 << 10,
		DepMean:    8, AddrIndep: 0.6,
		AtomicOp:      trace.SWAP,
		DefaultInstrs: 20000,
	},
	"ticket": {
		Descr:          "ticket lock: one FAA per acquisition, plain-load spinning on now-serving",
		Synth:          synthTicket,
		SpinMean:       4,
		CriticalLen:    12,
		NonCriticalLen: 60,
		HotLines:       2,
		SharedData:     64 << 10, SharedAccFrac: 1,
		WorkingSet: 512 << 10,
		DepMean:    8, AddrIndep: 0.6,
		AtomicOp:      trace.FAA,
		DefaultInstrs: 20000,
	},
	"barrier": {
		Descr:          "sense-reversing barrier: work phases separated by FAA arrivals and generation spinning",
		Synth:          synthBarrier,
		SpinMean:       6,
		CriticalLen:    0,
		NonCriticalLen: 150,
		HotLines:       2,
		WorkingSet:     512 << 10,
		DepMean:        8, AddrIndep: 0.6,
		AtomicOp:      trace.FAA,
		DefaultInstrs: 20000,
	},
	"cholesky": {
		Descr:         "Splash-4 cholesky: sparse factorization, task-queue atomics",
		AtomicsPer10K: 1.2, SharedFrac: 0.5, HotLines: 4,
		WorkingSet: 2 << 20, SharedData: 1 << 20, SharedAccFrac: 0.1,
		LoadFrac: 0.32, StoreFrac: 0.12, BranchFrac: 0.10, FPFrac: 0.25,
		DepMean: 10, BiasedBranches: 0.95, AtomicOp: trace.FAA,
		DefaultInstrs: 16000,
	},
}

// SyncKernels lists the synchronization-algorithm kernels built on
// atomics, per the paper's framing of atomics as the building blocks
// of locks and barriers.
var SyncKernels = []string{"tas", "ticket", "barrier"}

// AtomicIntensive lists the 13 workloads the paper's figures show, in
// Fig. 1's order: from the strongest eager advantage (canneal) to the
// strongest lazy advantage (pc).
var AtomicIntensive = []string{
	"canneal", "freqmine", "cq", "tatp", "barnes",
	"fmm", "volrend", "radiosity", "streamcluster",
	"raytrace", "tpcc", "sps", "pc",
}

// Fillers lists the atomic-poor workloads only included in the
// all-applications average.
var Fillers = []string{
	"blackscholes", "swaptions", "fluidanimate", "ocean", "radix", "lu",
	"bodytrack", "dedup", "ferret", "x264", "water", "cholesky",
}

// Names returns every registered workload name, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Get returns the parameters of a registered workload.
func Get(name string) (Params, error) {
	p, ok := registry[name]
	if !ok {
		return Params{}, fmt.Errorf("workload: unknown workload %q (known: %v)", name, Names())
	}
	p.Name = name
	if p.AddrIndep == 0 {
		p.AddrIndep = 0.6
	}
	return p, nil
}

// MustGet is Get for callers with a known-valid name.
func MustGet(name string) Params {
	p, err := Get(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Package config defines the simulated system parameters.
//
// The defaults follow Table I of "No Rush in Executing Atomic Instructions"
// (HPCA 2025): a 32-core processor whose cores resemble the performance
// cores of Intel Alder Lake, with a three-level cache hierarchy kept
// coherent by a blocking MESI directory.
package config

import (
	"fmt"
	"math/bits"
)

// AtomicPolicy selects when an atomic RMW instruction is issued.
type AtomicPolicy int

const (
	// PolicyEager issues atomics as soon as their operands are ready.
	PolicyEager AtomicPolicy = iota
	// PolicyLazy issues atomics once they are the oldest memory
	// instruction in the load queue and the store buffer has drained.
	PolicyLazy
	// PolicyRoW consults the contention predictor per atomic: predicted
	// non-contended atomics run eager, predicted contended ones lazy.
	PolicyRoW
)

// String returns the short name used in experiment tables.
func (p AtomicPolicy) String() string {
	switch p {
	case PolicyEager:
		return "eager"
	case PolicyLazy:
		return "lazy"
	case PolicyRoW:
		return "row"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Detection selects the contention-detection mechanism that trains the
// RoW predictor (Section IV of the paper).
type Detection int

const (
	// DetectEW marks an atomic contended when an external coherence
	// request hits its cacheline while the line is locked (execution
	// window, Section IV-A).
	DetectEW Detection = iota
	// DetectRW extends the window: external requests matching the
	// address of any in-flight atomic (locked or not) mark it contended
	// (ready window, Section IV-B).
	DetectRW
	// DetectRWDir additionally marks an atomic contended when its
	// cacheline arrives from a remote private cache with a fill latency
	// above LatencyThreshold (Section IV-C).
	DetectRWDir
)

// String returns the short name used in experiment tables.
func (d Detection) String() string {
	switch d {
	case DetectEW:
		return "EW"
	case DetectRW:
		return "RW"
	case DetectRWDir:
		return "RW+Dir"
	}
	return fmt.Sprintf("detect(%d)", int(d))
}

// PredictorKind selects the saturating-counter update rule
// (Section IV-D).
type PredictorKind int

const (
	// PredUpDown increments the counter on contention and decrements it
	// otherwise ("UpDown").
	PredUpDown PredictorKind = iota
	// PredSaturate saturates the counter to its maximum on contention
	// and decrements it otherwise ("Saturate on Contention").
	PredSaturate
	// PredTwoUpOneDown adds two on contention and subtracts one
	// otherwise; evaluated and discarded by the paper, kept as an
	// ablation.
	PredTwoUpOneDown
)

// String returns the short name used in experiment tables.
func (k PredictorKind) String() string {
	switch k {
	case PredUpDown:
		return "U/D"
	case PredSaturate:
		return "Sat"
	case PredTwoUpOneDown:
		return "+2/-1"
	}
	return fmt.Sprintf("pred(%d)", int(k))
}

// ROBSlotBits is the width of the ROB-slot field of a memory request
// tag (the core's tagSlotBits): a slot past 1<<ROBSlotBits-1 would
// spill into the tag's id bits and its response would be dropped as
// flushed. Validate bounds ROBSize by it.
const ROBSlotBits = 12

// MaxQueueSize bounds LQSize and SBSize: the core's LQ and SB line
// filters count matching entries per line bucket in a uint8, so a
// queue at this size cannot overflow one.
const MaxQueueSize = 255

// Core holds the out-of-order core parameters (Table I, "Processor").
type Core struct {
	FetchWidth  int // instructions fetched per cycle
	IssueWidth  int // instructions issued to execution per cycle
	CommitWidth int // instructions committed per cycle

	ROBSize int // reorder-buffer entries
	LQSize  int // load-queue entries
	SBSize  int // store-buffer entries
	AQSize  int // atomic-queue entries (Free Atomics)

	IntALULatency int // simple integer op latency
	IntMulLatency int // integer multiply latency
	FPLatency     int // floating-point op latency
	AGULatency    int // address-generation latency
	ForwardLat    int // store-to-load forwarding latency

	MemPorts int // L1D accesses accepted per cycle

	RedirectPenalty int // front-end refill bubble after flush/mispredict

	// FencedAtomics makes atomics behave as on old x86 parts: an
	// implicit full fence before and after (used by the Fig. 2
	// microbenchmark's "Kentsfield" configuration).
	FencedAtomics bool
}

// CacheLevel describes one cache level.
type CacheLevel struct {
	SizeBytes int
	Ways      int
	HitCycles int
}

// Memory holds the memory-hierarchy parameters (Table I, "Memory").
type Memory struct {
	LineBytes int

	L1I CacheLevel
	L1D CacheLevel
	L2  CacheLevel
	L3  CacheLevel // per bank

	L3Banks int

	// MSHRs bounds the outstanding misses per core (fill buffers);
	// demand misses beyond it park, prefetches are dropped. Without the
	// bound plain loads reach ~100-way MLP while atomics stay capped by
	// the 16-entry AQ, which inverts the Fig. 2 microbenchmark.
	MSHRs int

	DRAMCycles int // main memory access time

	PrefetcherDegree   int // IP-stride prefetch depth (0 disables)
	PrefetcherDistance int // stride confirmations needed before issuing

	// Network timing.
	LinkCycles   int // per-hop latency
	RouterCycles int // per-hop router pipeline
	BaseCycles   int // injection/ejection overhead per message
}

// HomeBank returns the L3 bank, in [0, L3Banks), that is home to the
// line at address line: line numbers interleave across the banks.
// LineBytes must be a power of two (Validate checks it).
func (m *Memory) HomeBank(line uint64) int {
	return int((line >> bits.TrailingZeros(uint(m.LineBytes))) % uint64(m.L3Banks))
}

// RoW holds the Rush-or-Wait mechanism parameters (Section IV).
type RoW struct {
	Detection        Detection
	Predictor        PredictorKind
	PredictorEntries int // counter table entries (64 in the paper)
	PredictorBits    int // counter width N (4 in the paper)
	// Threshold compares against the counter: counter <= Threshold
	// executes eager. The paper uses 1 for UpDown and 0 for Saturate.
	// A negative value selects the per-predictor paper default.
	Threshold int
	// LatencyThreshold is the fill-latency cutoff (cycles) for the
	// directory-based detection (400 in the paper). A value < 0 means
	// "infinite" (disables the Dir mechanism even under DetectRWDir).
	LatencyThreshold int
	// TimestampBits is the width of the issued-cycle field in each AQ
	// entry (14 in the paper); latency is computed with unsigned
	// wraparound arithmetic at this width.
	TimestampBits int
}

// Config is the complete simulated-system configuration.
type Config struct {
	NumCores int

	Core   Core
	Mem    Memory
	RoW    RoW
	Policy AtomicPolicy

	// ForwardAtomics enables store-to-atomic forwarding and, under
	// PolicyRoW, the atomic-locality override that flips a predicted-
	// contended atomic back to eager when a matching older store is in
	// the store buffer (Section IV-E).
	ForwardAtomics bool

	// WarmCaches pre-installs the lines each trace touches (private
	// lines in the owner's L2, shared lines in the L3) before the
	// measured run, emulating a region-of-interest measurement after
	// warm-up. Capacity still applies: regions larger than a cache
	// keep only what fits.
	WarmCaches bool

	// MaxCycles aborts a run that exceeds this cycle count (deadlock
	// guard for tests); 0 means no limit.
	MaxCycles uint64
}

// Default returns the Table I configuration: 32 Alder-Lake-like cores,
// RoW with the RW+Dir detector and the UpDown predictor, forwarding
// enabled.
func Default() *Config {
	return &Config{
		NumCores: 32,
		Core: Core{
			FetchWidth:      6,
			IssueWidth:      12,
			CommitWidth:     12,
			ROBSize:         512,
			LQSize:          192,
			SBSize:          128,
			AQSize:          16,
			IntALULatency:   1,
			IntMulLatency:   3,
			FPLatency:       4,
			AGULatency:      1,
			ForwardLat:      2,
			MemPorts:        3,
			RedirectPenalty: 12,
		},
		Mem: Memory{
			LineBytes:          64,
			L1I:                CacheLevel{SizeBytes: 32 << 10, Ways: 8, HitCycles: 4},
			L1D:                CacheLevel{SizeBytes: 48 << 10, Ways: 12, HitCycles: 5},
			L2:                 CacheLevel{SizeBytes: 1 << 20, Ways: 8, HitCycles: 12},
			L3:                 CacheLevel{SizeBytes: 4 << 20, Ways: 16, HitCycles: 35},
			L3Banks:            8,
			MSHRs:              16,
			DRAMCycles:         160,
			PrefetcherDegree:   2,
			PrefetcherDistance: 2,
			LinkCycles:         1,
			RouterCycles:       2,
			BaseCycles:         4,
		},
		RoW: RoW{
			Detection:        DetectRWDir,
			Predictor:        PredUpDown,
			PredictorEntries: 64,
			PredictorBits:    4,
			Threshold:        -1,
			LatencyThreshold: 400,
			TimestampBits:    14,
		},
		Policy:         PolicyRoW,
		ForwardAtomics: true,
		WarmCaches:     true,
		MaxCycles:      0,
	}
}

// Validate reports a descriptive error when the configuration is not
// simulable.
func (c *Config) Validate() error {
	switch {
	case c.NumCores <= 0:
		return fmt.Errorf("config: NumCores must be positive, got %d", c.NumCores)
	case c.NumCores > 64:
		return fmt.Errorf("config: NumCores must be at most 64, the cores a directory sharer mask names, got %d", c.NumCores)
	case c.Core.ROBSize <= 0 || c.Core.LQSize <= 0 || c.Core.SBSize <= 0:
		return fmt.Errorf("config: ROB/LQ/SB sizes must be positive (%d/%d/%d)",
			c.Core.ROBSize, c.Core.LQSize, c.Core.SBSize)
	case c.Core.ROBSize > 1<<ROBSlotBits:
		return fmt.Errorf("config: ROBSize must be at most %d, the slots a memory tag names, got %d", 1<<ROBSlotBits, c.Core.ROBSize)
	case c.Core.LQSize > MaxQueueSize || c.Core.SBSize > MaxQueueSize:
		return fmt.Errorf("config: LQSize and SBSize must be at most %d, what a line-filter counter holds (%d/%d)",
			MaxQueueSize, c.Core.LQSize, c.Core.SBSize)
	case c.Core.AQSize <= 0:
		return fmt.Errorf("config: AQSize must be positive, got %d", c.Core.AQSize)
	case c.Core.FetchWidth <= 0 || c.Core.IssueWidth <= 0 || c.Core.CommitWidth <= 0:
		return fmt.Errorf("config: pipeline widths must be positive (%d/%d/%d)",
			c.Core.FetchWidth, c.Core.IssueWidth, c.Core.CommitWidth)
	case c.Mem.LineBytes <= 0 || c.Mem.LineBytes&(c.Mem.LineBytes-1) != 0:
		return fmt.Errorf("config: LineBytes must be a positive power of two, got %d", c.Mem.LineBytes)
	case c.Mem.L3Banks <= 0:
		return fmt.Errorf("config: L3Banks must be positive, got %d", c.Mem.L3Banks)
	case c.RoW.PredictorEntries <= 0 || c.RoW.PredictorEntries&(c.RoW.PredictorEntries-1) != 0:
		return fmt.Errorf("config: PredictorEntries must be a positive power of two, got %d", c.RoW.PredictorEntries)
	case c.RoW.PredictorBits <= 0 || c.RoW.PredictorBits > 16:
		return fmt.Errorf("config: PredictorBits must be in [1,16], got %d", c.RoW.PredictorBits)
	case c.RoW.TimestampBits <= 0 || c.RoW.TimestampBits > 32:
		return fmt.Errorf("config: TimestampBits must be in [1,32], got %d", c.RoW.TimestampBits)
	}
	for _, lvl := range []struct {
		name string
		l    CacheLevel
	}{{"L1I", c.Mem.L1I}, {"L1D", c.Mem.L1D}, {"L2", c.Mem.L2}, {"L3", c.Mem.L3}} {
		if lvl.l.SizeBytes <= 0 || lvl.l.Ways <= 0 {
			return fmt.Errorf("config: %s size/ways must be positive (%d/%d)", lvl.name, lvl.l.SizeBytes, lvl.l.Ways)
		}
		if lvl.l.SizeBytes%(lvl.l.Ways*c.Mem.LineBytes) != 0 {
			return fmt.Errorf("config: %s size %d not divisible by ways*line (%d*%d)",
				lvl.name, lvl.l.SizeBytes, lvl.l.Ways, c.Mem.LineBytes)
		}
		sets := lvl.l.SizeBytes / (lvl.l.Ways * c.Mem.LineBytes)
		if sets&(sets-1) != 0 {
			return fmt.Errorf("config: %s set count %d must be a power of two", lvl.name, sets)
		}
	}
	return nil
}

// Clone returns a deep copy that can be mutated independently.
func (c *Config) Clone() *Config {
	cp := *c
	return &cp
}

// EarlyAddrCalc reports whether predicted-lazy atomics issue once in
// only-calculate-address mode so the ready window can observe external
// requests (Section IV-B). Only the ready window needs that pass, so it
// follows from the policy and the detector: RoW with DetectRW or
// DetectRWDir.
func (c *Config) EarlyAddrCalc() bool {
	return c.Policy == PolicyRoW && c.RoW.Detection != DetectEW
}

// PredictorThreshold resolves the effective eager/lazy decision
// threshold, applying the paper's per-predictor defaults when
// Threshold is negative.
func (c *Config) PredictorThreshold() int {
	if c.RoW.Threshold >= 0 {
		return c.RoW.Threshold
	}
	switch c.RoW.Predictor {
	case PredSaturate:
		return 0
	default:
		return 1
	}
}

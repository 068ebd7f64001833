// Package trace defines the instruction representation consumed by the
// simulated cores. Instructions are produced ahead of time by the
// workload generators (the simulator is trace-driven, like the Sniper
// front-end used by the paper), but all timing — including the
// contention among cores — emerges from the cycle-level model.
package trace

import "fmt"

// Kind classifies an instruction.
type Kind uint8

const (
	// IntOp is a simple integer ALU operation.
	IntOp Kind = iota
	// IntMul is a long-latency integer operation.
	IntMul
	// FPOp is a floating-point operation.
	FPOp
	// Load reads memory.
	Load
	// Store writes memory; under TSO it retires through the store
	// buffer after commit.
	Store
	// Branch is a conditional branch; Taken carries its outcome for
	// the branch predictor.
	Branch
	// Atomic is an atomic read-modify-write. It decomposes into
	// load_lock / ALU / store_unlock micro-operations (Fig. 3 of the
	// paper) and occupies ROB, LQ, SB and AQ entries.
	Atomic
	// Fence is a full memory fence (mfence): it blocks younger memory
	// operations from issuing until it commits and the store buffer
	// drains. Used by the Fig. 2 microbenchmark variants.
	Fence
)

// String returns a short mnemonic.
func (k Kind) String() string {
	switch k {
	case IntOp:
		return "int"
	case IntMul:
		return "mul"
	case FPOp:
		return "fp"
	case Load:
		return "ld"
	case Store:
		return "st"
	case Branch:
		return "br"
	case Atomic:
		return "atomic"
	case Fence:
		return "fence"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// AtomicKind identifies the RMW operation an Atomic performs. The
// distinction only matters for the Fig. 2 microbenchmark (SWAP locks
// regardless of the lock prefix on x86) and for ALU latency.
type AtomicKind uint8

const (
	// FAA is fetch-and-add.
	FAA AtomicKind = iota
	// CAS is compare-and-swap.
	CAS
	// SWAP is an unconditional exchange (xchgl).
	SWAP
)

// String returns the conventional name.
func (a AtomicKind) String() string {
	switch a {
	case FAA:
		return "FAA"
	case CAS:
		return "CAS"
	case SWAP:
		return "SWAP"
	}
	return fmt.Sprintf("rmw(%d)", uint8(a))
}

// NumRegs is the size of the architectural register file visible to
// the renamer. Register 0 is hardwired to "no register".
const NumRegs = 64

// Reg identifies an architectural register; 0 means unused.
type Reg uint8

// Instr is one trace instruction. The generator fills all fields; the
// core never mutates an Instr (per-dynamic-instance state lives in ROB
// entries, so a trace can be replayed after squashes). The two words
// come first and the eight bytes after them, which keeps the record at
// 24 bytes with no padding (pinned by TestInstrSize): a 32-core cell
// of 24,000 instructions a core holds 768,000 of them.
type Instr struct {
	// PC is the (synthetic) program counter, used to index the branch
	// and contention predictors.
	PC uint64
	// Addr is the virtual address accessed by Load/Store/Atomic.
	Addr uint64

	Kind Kind

	// Src1, Src2 are source registers (0 = unused). For memory ops
	// they feed address generation.
	Src1, Src2 Reg
	// Dst is the destination register (0 = none).
	Dst Reg

	// Size is the access size in bytes.
	Size uint8

	// AtomicOp selects the RMW operation when Kind == Atomic.
	AtomicOp AtomicKind
	// NoLockPrefix marks an Atomic encoded without the x86 lock
	// prefix: it executes as a plain RMW (load+op+store) without cache
	// locking. SWAP ignores this (xchgl always locks). Only used by
	// the Fig. 2 microbenchmark.
	NoLockPrefix bool

	// Taken is the branch outcome when Kind == Branch.
	Taken bool
}

// IsMem reports whether the instruction occupies load/store queue
// resources.
func (in *Instr) IsMem() bool {
	return in.Kind == Load || in.Kind == Store || in.Kind == Atomic
}

// LocksLine reports whether this instruction performs cache locking:
// an Atomic with the lock prefix, or a SWAP (which always locks).
func (in *Instr) LocksLine() bool {
	if in.Kind != Atomic {
		return false
	}
	return !in.NoLockPrefix || in.AtomicOp == SWAP
}

// String renders the instruction for debugging.
func (in *Instr) String() string {
	switch in.Kind {
	case Load:
		return fmt.Sprintf("%#x: ld r%d <- [%#x]", in.PC, in.Dst, in.Addr)
	case Store:
		return fmt.Sprintf("%#x: st [%#x] <- r%d", in.PC, in.Addr, in.Src1)
	case Atomic:
		lock := "lock "
		if in.NoLockPrefix {
			lock = ""
		}
		return fmt.Sprintf("%#x: %s%s [%#x]", in.PC, lock, in.AtomicOp, in.Addr)
	case Branch:
		return fmt.Sprintf("%#x: br taken=%v", in.PC, in.Taken)
	case Fence:
		return fmt.Sprintf("%#x: mfence", in.PC)
	default:
		return fmt.Sprintf("%#x: %s r%d <- r%d, r%d", in.PC, in.Kind, in.Dst, in.Src1, in.Src2)
	}
}

// Program is the per-core instruction sequence. Cores index into it
// with a fetch pointer, which squashes rewind.
type Program []Instr

// Stats summarizes a program's composition; used by tests and by the
// Fig. 5 atomic-intensity table.
type Stats struct {
	Total    int
	Loads    int
	Stores   int
	Branches int
	Atomics  int
	Fences   int
}

// Summarize scans the program and counts instruction kinds.
func (p Program) Summarize() Stats {
	var s Stats
	s.Total = len(p)
	for i := range p {
		switch p[i].Kind {
		case Load:
			s.Loads++
		case Store:
			s.Stores++
		case Branch:
			s.Branches++
		case Atomic:
			s.Atomics++
		case Fence:
			s.Fences++
		}
	}
	return s
}

// AtomicsPer10K returns the program's atomic intensity in atomics per
// ten kilo-instructions, the metric of Fig. 5.
func (p Program) AtomicsPer10K() float64 {
	if len(p) == 0 {
		return 0
	}
	s := p.Summarize()
	return float64(s.Atomics) / float64(s.Total) * 10000
}

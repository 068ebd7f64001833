package trace

import (
	"testing"
	"unsafe"
)

func TestIsMem(t *testing.T) {
	cases := []struct {
		kind Kind
		want bool
	}{
		{IntOp, false}, {IntMul, false}, {FPOp, false},
		{Load, true}, {Store, true}, {Atomic, true},
		{Branch, false}, {Fence, false},
	}
	for _, c := range cases {
		in := Instr{Kind: c.kind}
		if in.IsMem() != c.want {
			t.Errorf("IsMem(%v) = %v, want %v", c.kind, in.IsMem(), c.want)
		}
	}
}

func TestLocksLine(t *testing.T) {
	cases := []struct {
		kind     Kind
		op       AtomicKind
		noPrefix bool
		want     bool
	}{
		{Atomic, FAA, false, true},  // lock faa
		{Atomic, FAA, true, false},  // plain faa: no locking
		{Atomic, CAS, true, false},  // plain cas
		{Atomic, SWAP, true, true},  // xchgl always locks
		{Atomic, SWAP, false, true}, // lock xchgl
		{Load, FAA, false, false},   // not an atomic
	}
	for _, c := range cases {
		in := Instr{Kind: c.kind, AtomicOp: c.op, NoLockPrefix: c.noPrefix}
		if in.LocksLine() != c.want {
			t.Errorf("LocksLine(%v,%v,noPrefix=%v) = %v, want %v",
				c.kind, c.op, c.noPrefix, in.LocksLine(), c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	p := Program{
		{Kind: Load}, {Kind: Load}, {Kind: Store},
		{Kind: Branch}, {Kind: Atomic}, {Kind: Fence}, {Kind: IntOp},
	}
	s := p.Summarize()
	if s.Total != 7 || s.Loads != 2 || s.Stores != 1 || s.Branches != 1 || s.Atomics != 1 || s.Fences != 1 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestAtomicsPer10K(t *testing.T) {
	p := make(Program, 1000)
	for i := 0; i < 5; i++ {
		p[i*100].Kind = Atomic
	}
	if got := p.AtomicsPer10K(); got != 50 {
		t.Fatalf("AtomicsPer10K = %v, want 50", got)
	}
	var empty Program
	if empty.AtomicsPer10K() != 0 {
		t.Fatal("empty program intensity must be 0")
	}
}

func TestStringFormats(t *testing.T) {
	// Smoke-test every String path (panics or empty output would be bugs).
	instrs := []Instr{
		{Kind: Load, PC: 4, Dst: 1, Addr: 0x100},
		{Kind: Store, PC: 8, Src1: 2, Addr: 0x140},
		{Kind: Atomic, PC: 12, AtomicOp: FAA, Addr: 0x180},
		{Kind: Atomic, PC: 12, AtomicOp: CAS, NoLockPrefix: true, Addr: 0x180},
		{Kind: Branch, PC: 16, Taken: true},
		{Kind: Fence, PC: 20},
		{Kind: IntOp, PC: 24, Dst: 3, Src1: 1, Src2: 2},
	}
	for _, in := range instrs {
		if in.String() == "" {
			t.Errorf("empty String for %v", in.Kind)
		}
	}
	for _, k := range []Kind{IntOp, IntMul, FPOp, Load, Store, Branch, Atomic, Fence, Kind(99)} {
		if k.String() == "" {
			t.Errorf("empty Kind.String for %d", k)
		}
	}
	for _, a := range []AtomicKind{FAA, CAS, SWAP, AtomicKind(9)} {
		if a.String() == "" {
			t.Errorf("empty AtomicKind.String for %d", a)
		}
	}
}

// TestInstrSize pins the record at 24 bytes: two words, then eight
// one-byte fields with no padding.
func TestInstrSize(t *testing.T) {
	if got := unsafe.Sizeof(Instr{}); got != 24 {
		t.Fatalf("Instr is %d bytes, want 24", got)
	}
}

package workload

import (
	"testing"

	"rowsim/internal/trace"
)

func TestRegistryComplete(t *testing.T) {
	for _, n := range append(append([]string{}, AtomicIntensive...), Fillers...) {
		p, err := Get(n)
		if err != nil {
			t.Fatalf("workload %s: %v", n, err)
		}
		if p.Name != n {
			t.Errorf("%s: name not filled", n)
		}
		if p.Descr == "" {
			t.Errorf("%s: missing description", n)
		}
		if p.DefaultInstrs <= 0 {
			t.Errorf("%s: missing default length", n)
		}
		if p.AddrIndep <= 0 {
			t.Errorf("%s: AddrIndep not defaulted", n)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("definitely-not-a-workload"); err == nil {
		t.Fatal("expected an error")
	}
}

func TestMustGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet did not panic")
		}
	}()
	MustGet("nope")
}

func TestGenerateDeterministic(t *testing.T) {
	p := MustGet("pc")
	a := Generate(p, 2, 3000, 7)
	b := Generate(p, 2, 3000, 7)
	for c := range a {
		if len(a[c]) != len(b[c]) {
			t.Fatalf("core %d lengths differ", c)
		}
		for i := range a[c] {
			if a[c][i] != b[c][i] {
				t.Fatalf("core %d instr %d differs", c, i)
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	p := MustGet("pc")
	a := Generate(p, 1, 3000, 1)[0]
	b := Generate(p, 1, 3000, 2)[0]
	same := 0
	for i := range a {
		if i < len(b) && a[i].Addr == b[i].Addr && a[i].Kind == b[i].Kind {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestAtomicIntensityNearTarget(t *testing.T) {
	for _, n := range AtomicIntensive {
		p := MustGet(n)
		prog := Generate(p, 1, 30000, 3)[0]
		got := prog.AtomicsPer10K()
		lo, hi := p.AtomicsPer10K*0.5, p.AtomicsPer10K*1.6
		if got < lo || got > hi {
			t.Errorf("%s: intensity %.1f outside [%.1f,%.1f]", n, got, lo, hi)
		}
	}
}

func TestCoresDisjointPrivateRegions(t *testing.T) {
	p := MustGet("canneal")
	progs := Generate(p, 2, 4000, 5)
	seen := map[uint64]int{}
	for c, prog := range progs {
		for i := range prog {
			in := &prog[i]
			if !in.IsMem() || in.Addr < privateBase {
				continue
			}
			line := in.Addr &^ 63
			if prev, ok := seen[line]; ok && prev != c {
				t.Fatalf("private line %#x used by cores %d and %d", line, prev, c)
			}
			seen[line] = c
		}
	}
}

// TestRegionMatchesLayout: Region names an access by the part of the
// layout the generator drew it from. Every atomic of a pc trace on one
// of its hot lines is "hot-atomic", and every access inside a core's
// private window is "private".
func TestRegionMatchesLayout(t *testing.T) {
	p := MustGet("pc")
	hotEnd := uint64(hotBase) + uint64(p.HotLines)*lineBytes
	var hot, private int
	for c, prog := range Generate(p, 4, 4000, 5) {
		window := uint64(privateBase) + uint64(c)*privateStep
		for i := range prog {
			in := &prog[i]
			want := ""
			switch {
			case !in.IsMem():
				continue
			case in.Kind == trace.Atomic && in.Addr >= hotBase && in.Addr < hotEnd:
				hot++
				want = "hot-atomic"
			case in.Addr >= window && in.Addr < window+privateStep:
				private++
				want = "private"
			default:
				continue
			}
			if got := Region(in.Addr); got != want {
				t.Fatalf("core %d: %v is %q, want %q", c, in, got, want)
			}
		}
	}
	if hot == 0 || private == 0 {
		t.Fatalf("%d hot-line atomics and %d private accesses; the trace exercises neither check", hot, private)
	}
}

func TestHotLinesShared(t *testing.T) {
	p := MustGet("pc")
	progs := Generate(p, 4, 4000, 5)
	perCore := make([]map[uint64]bool, 4)
	for c, prog := range progs {
		perCore[c] = map[uint64]bool{}
		for i := range prog {
			in := &prog[i]
			if in.Kind == trace.Atomic && in.Addr >= hotBase && in.Addr < metaBase {
				perCore[c][in.Addr&^63] = true
			}
		}
	}
	for c := 1; c < 4; c++ {
		shared := false
		for l := range perCore[0] {
			if perCore[c][l] {
				shared = true
				break
			}
		}
		if !shared {
			t.Fatalf("cores 0 and %d share no hot atomic lines", c)
		}
	}
}

func TestStableSitePCs(t *testing.T) {
	// Dynamic instances of the same static site keep the same PC
	// (the predictors depend on it): the number of distinct atomic
	// PCs must be small and repeated.
	p := MustGet("sps")
	prog := Generate(p, 1, 20000, 9)[0]
	pcs := map[uint64]int{}
	for i := range prog {
		if prog[i].Kind == trace.Atomic {
			pcs[prog[i].PC]++
		}
	}
	if len(pcs) == 0 || len(pcs) > 64 {
		t.Fatalf("%d distinct atomic sites, want 1..64", len(pcs))
	}
	repeated := 0
	for _, n := range pcs {
		if n > 1 {
			repeated++
		}
	}
	if repeated == 0 {
		t.Fatal("no atomic site executed twice")
	}
}

func TestLocalityGroupShape(t *testing.T) {
	// cq atomics are usually preceded (within a few instructions) by
	// a store to the same line.
	p := MustGet("cq")
	prog := Generate(p, 1, 20000, 11)[0]
	total, withStore := 0, 0
	for i := range prog {
		in := &prog[i]
		if in.Kind != trace.Atomic || in.Addr < hotBase || in.Addr >= metaBase {
			continue
		}
		total++
		for back := 1; back <= 3 && i-back >= 0; back++ {
			prev := &prog[i-back]
			if prev.Kind == trace.Store && prev.Addr&^63 == in.Addr&^63 {
				withStore++
				break
			}
		}
	}
	if total == 0 {
		t.Fatal("cq generated no hot atomics")
	}
	frac := float64(withStore) / float64(total)
	if frac < 0.6 {
		t.Fatalf("only %.0f%% of hot atomics have a same-line store (want >= 60%%)", frac*100)
	}
}

func TestWarmFilter(t *testing.T) {
	cold := MustGet("canneal")
	f := WarmFilter(cold)
	if f == nil {
		t.Fatal("cold-atomics workload must have a filter")
	}
	wsLine := uint64(privateBase + 0x100)
	atomicLine := uint64(privateBase + atomicRegionOff + 0x100)
	if !f(0, wsLine) {
		t.Fatal("working-set line filtered out")
	}
	if f(0, atomicLine) {
		t.Fatal("cold atomic line allowed to warm")
	}
	if !f(0, hotBase) {
		t.Fatal("shared line filtered out")
	}
	if WarmFilter(MustGet("blackscholes")) != nil {
		t.Fatal("warm workload should have no filter")
	}
}

func TestDefaultLengthUsed(t *testing.T) {
	p := MustGet("fmm")
	prog := Generate(p, 1, 0, 1)[0]
	if len(prog) < p.DefaultInstrs {
		t.Fatalf("len = %d, want >= %d", len(prog), p.DefaultInstrs)
	}
}

func TestMicrobenchVariants(t *testing.T) {
	vs := MicrobenchVariants()
	if len(vs) != 12 {
		t.Fatalf("%d variants, want 12", len(vs))
	}
	names := map[string]bool{}
	for _, v := range vs {
		if names[v.String()] {
			t.Fatalf("duplicate variant %q", v)
		}
		names[v.String()] = true
	}
}

func TestMicrobenchShape(t *testing.T) {
	for _, v := range MicrobenchVariants() {
		prog := GenerateMicrobench(v, 100, 1)
		if got := MicrobenchIterations(prog, v); got != 100 {
			t.Fatalf("%v: iterations = %d, want 100", v, got)
		}
		s := prog.Summarize()
		if v.Locked || v.Op == trace.SWAP {
			if s.Atomics != 100 {
				t.Fatalf("%v: atomics = %d, want 100", v, s.Atomics)
			}
		} else {
			if s.Atomics != 0 || s.Loads != 100 || s.Stores != 100 {
				t.Fatalf("%v: plain RMW shape wrong: %+v", v, s)
			}
		}
		if v.Fenced && s.Fences != 200 {
			t.Fatalf("%v: fences = %d, want 200", v, s.Fences)
		}
		if !v.Fenced && s.Fences != 0 {
			t.Fatalf("%v: unexpected fences", v)
		}
	}
}

func TestMicrobenchLockSemantics(t *testing.T) {
	// Plain SWAP locks anyway (xchgl); plain FAA/CAS never lock.
	swap := GenerateMicrobench(MicrobenchVariant{Op: trace.SWAP}, 10, 1)
	for i := range swap {
		if swap[i].Kind == trace.Atomic && !swap[i].LocksLine() {
			t.Fatal("plain SWAP must still lock")
		}
	}
}

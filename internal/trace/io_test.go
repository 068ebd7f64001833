package trace

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
	"testing/quick"
)

func sampleProgram() Program {
	return Program{
		{PC: 0x400000, Kind: Load, Src1: 3, Dst: 5, Addr: 0x40001000, Size: 8},
		{PC: 0x400004, Kind: Store, Src1: 5, Src2: 3, Addr: 0x40001040, Size: 8},
		{PC: 0x400008, Kind: Atomic, Src1: 1, Dst: 2, Addr: 0x10000000, Size: 8, AtomicOp: CAS},
		{PC: 0x40000c, Kind: Atomic, Dst: 2, Addr: 0x10000040, Size: 8, AtomicOp: SWAP, NoLockPrefix: true},
		{PC: 0x400010, Kind: Branch, Src1: 2, Taken: true},
		{PC: 0x400014, Kind: Fence},
		{PC: 0x400018, Kind: IntMul, Src1: 1, Src2: 2, Dst: 3},
	}
}

func TestTraceRoundTrip(t *testing.T) {
	in := []Program{sampleProgram(), sampleProgram()[:3], {}}
	var buf bytes.Buffer
	if err := WritePrograms(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadPrograms(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("cores = %d, want %d", len(out), len(in))
	}
	for c := range in {
		if len(out[c]) != len(in[c]) {
			t.Fatalf("core %d: %d instrs, want %d", c, len(out[c]), len(in[c]))
		}
		for i := range in[c] {
			if out[c][i] != in[c][i] {
				t.Fatalf("core %d instr %d: %+v != %+v", c, i, out[c][i], in[c][i])
			}
		}
	}
}

func TestTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadPrograms(bytes.NewReader([]byte("not a trace file"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadPrograms(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestTraceRejectsWrongVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrograms(&buf, []Program{{}}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 99 // version
	if _, err := ReadPrograms(bytes.NewReader(b)); err == nil {
		t.Fatal("wrong version accepted")
	}
}

func TestTraceTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrograms(&buf, []Program{sampleProgram()}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := ReadPrograms(bytes.NewReader(b[:len(b)-5])); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

func TestTraceRoundTripQuick(t *testing.T) {
	f := func(pcs []uint64, kinds []uint8) bool {
		var prog Program
		for i := range pcs {
			var kb uint8
			if len(kinds) > 0 {
				kb = kinds[i%len(kinds)]
			}
			k := Kind(kb % 8)
			prog = append(prog, Instr{
				PC: pcs[i], Kind: k,
				Src1: Reg(uint8(pcs[i]) % 64), Dst: Reg(uint8(pcs[i]>>8) % 64),
				Addr: pcs[i] * 8, Size: 8,
			})
		}
		var buf bytes.Buffer
		if err := WritePrograms(&buf, []Program{prog}); err != nil {
			return false
		}
		out, err := ReadPrograms(&buf)
		if err != nil || len(out) != 1 || len(out[0]) != len(prog) {
			return false
		}
		for i := range prog {
			if out[0][i] != prog[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestTraceFormatPinned: the bytes WritePrograms emits for a fixed
// program set never change, whatever the order of Instr's fields.
// Saved traces from any build must keep loading.
func TestTraceFormatPinned(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrograms(&buf, []Program{sampleProgram(), sampleProgram()[:3], {}}); err != nil {
		t.Fatal(err)
	}
	const want = "c1457f1126675f1cbed128d38c70d53a54b78eafe8340d7006c7aad198bcfe11"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("trace file sha256 %s, want %s: the on-disk format moved", got, want)
	}
}

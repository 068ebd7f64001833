package sim

import (
	"testing"

	"rowsim/internal/config"
	"rowsim/internal/trace"
	"rowsim/internal/workload"
)

// TestCoherenceInvariantUnderContention runs a heavily contended
// workload under each policy, then drains the system and checks the
// single-writer/multiple-reader invariant over every cache.
func TestCoherenceInvariantUnderContention(t *testing.T) {
	for _, pol := range []config.AtomicPolicy{
		config.PolicyEager, config.PolicyLazy, config.PolicyRoW,
	} {
		cfg := config.Default()
		cfg.NumCores = 8
		cfg.Policy = pol
		cfg.MaxCycles = 50_000_000
		progs := workload.Generate(workload.MustGet("pc"), 8, 3000, 5)
		s, err := New(cfg, progs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatalf("policy %v: %v", pol, err)
		}
		if err := s.Quiesce(); err != nil {
			t.Fatalf("policy %v: %v", pol, err)
		}
	}
}

// TestCoherenceInvariantMixedSharing covers read-sharing plus writes.
func TestCoherenceInvariantMixedSharing(t *testing.T) {
	shared := uint64(0x18000000)
	mk := func(writer bool) trace.Program {
		var p trace.Program
		for i := 0; i < 400; i++ {
			if writer && i%3 == 0 {
				p = append(p, trace.Instr{PC: 0x400000, Kind: trace.Store, Src1: 1, Addr: shared + uint64(i%8)*64, Size: 8})
			} else {
				p = append(p, trace.Instr{PC: 0x400004, Kind: trace.Load, Dst: 1, Addr: shared + uint64(i%8)*64, Size: 8})
			}
		}
		return p
	}
	cfg := config.Default()
	cfg.NumCores = 4
	cfg.MaxCycles = 20_000_000
	progs := []trace.Program{mk(true), mk(false), mk(true), mk(false)}
	s, err := New(cfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.Quiesce(); err != nil {
		t.Fatal(err)
	}
}

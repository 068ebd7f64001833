package config

import (
	"strings"
	"testing"
)

func TestDefaultIsValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestDefaultMatchesTableI(t *testing.T) {
	cfg := Default()
	if cfg.NumCores != 32 {
		t.Errorf("cores = %d, want 32", cfg.NumCores)
	}
	if cfg.Core.FetchWidth != 6 || cfg.Core.IssueWidth != 12 || cfg.Core.CommitWidth != 12 {
		t.Errorf("widths = %d/%d/%d, want 6/12/12", cfg.Core.FetchWidth, cfg.Core.IssueWidth, cfg.Core.CommitWidth)
	}
	if cfg.Core.ROBSize != 512 || cfg.Core.LQSize != 192 || cfg.Core.SBSize != 128 {
		t.Errorf("ROB/LQ/SB = %d/%d/%d, want 512/192/128", cfg.Core.ROBSize, cfg.Core.LQSize, cfg.Core.SBSize)
	}
	if cfg.Core.AQSize != 16 {
		t.Errorf("AQ = %d, want 16", cfg.Core.AQSize)
	}
	if cfg.Mem.L1D.SizeBytes != 48<<10 || cfg.Mem.L1D.Ways != 12 || cfg.Mem.L1D.HitCycles != 5 {
		t.Errorf("L1D = %d/%d/%d", cfg.Mem.L1D.SizeBytes, cfg.Mem.L1D.Ways, cfg.Mem.L1D.HitCycles)
	}
	if cfg.Mem.L2.SizeBytes != 1<<20 || cfg.Mem.L2.Ways != 8 || cfg.Mem.L2.HitCycles != 12 {
		t.Errorf("L2 = %d/%d/%d", cfg.Mem.L2.SizeBytes, cfg.Mem.L2.Ways, cfg.Mem.L2.HitCycles)
	}
	if cfg.Mem.L3.SizeBytes != 4<<20 || cfg.Mem.L3.Ways != 16 || cfg.Mem.L3.HitCycles != 35 {
		t.Errorf("L3 = %d/%d/%d", cfg.Mem.L3.SizeBytes, cfg.Mem.L3.Ways, cfg.Mem.L3.HitCycles)
	}
	if cfg.Mem.DRAMCycles != 160 {
		t.Errorf("DRAM = %d, want 160", cfg.Mem.DRAMCycles)
	}
	if cfg.RoW.PredictorEntries != 64 || cfg.RoW.PredictorBits != 4 {
		t.Errorf("predictor = %dx%d, want 64x4", cfg.RoW.PredictorEntries, cfg.RoW.PredictorBits)
	}
	if cfg.RoW.LatencyThreshold != 400 || cfg.RoW.TimestampBits != 14 {
		t.Errorf("threshold/timestamp = %d/%d, want 400/14", cfg.RoW.LatencyThreshold, cfg.RoW.TimestampBits)
	}
}

func TestRoWStorageBudget(t *testing.T) {
	// The paper claims 64 bytes total: 64x4-bit counters (256 bits)
	// plus 16 AQ entries x (1+1+14) bits (256 bits).
	cfg := Default()
	predictorBits := cfg.RoW.PredictorEntries * cfg.RoW.PredictorBits
	aqBits := cfg.Core.AQSize * (1 + 1 + cfg.RoW.TimestampBits)
	if total := (predictorBits + aqBits) / 8; total != 64 {
		t.Fatalf("RoW storage = %d bytes, want 64", total)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		substr string
	}{
		{"cores", func(c *Config) { c.NumCores = 0 }, "NumCores"},
		{"cores past the sharer mask", func(c *Config) { c.NumCores = 65 }, "NumCores"},
		{"rob", func(c *Config) { c.Core.ROBSize = 0 }, "ROB"},
		{"aq", func(c *Config) { c.Core.AQSize = -1 }, "AQSize"},
		{"widths", func(c *Config) { c.Core.FetchWidth = 0 }, "width"},
		{"line", func(c *Config) { c.Mem.LineBytes = 60 }, "LineBytes"},
		{"banks", func(c *Config) { c.Mem.L3Banks = 0 }, "L3Banks"},
		{"pred-entries", func(c *Config) { c.RoW.PredictorEntries = 3 }, "PredictorEntries"},
		{"pred-bits", func(c *Config) { c.RoW.PredictorBits = 0 }, "PredictorBits"},
		{"timestamp", func(c *Config) { c.RoW.TimestampBits = 40 }, "TimestampBits"},
		{"cache-ways", func(c *Config) { c.Mem.L1D.Ways = 0 }, "L1D"},
		{"cache-divisible", func(c *Config) { c.Mem.L2.SizeBytes = 1<<20 + 64 }, "L2"},
	}
	for _, c := range cases {
		cfg := Default()
		c.mutate(cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.substr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.substr)
		}
	}
}

func TestPredictorThresholdDefaults(t *testing.T) {
	cfg := Default()
	cfg.RoW.Threshold = -1
	cfg.RoW.Predictor = PredUpDown
	if got := cfg.PredictorThreshold(); got != 1 {
		t.Fatalf("UpDown default threshold = %d, want 1", got)
	}
	cfg.RoW.Predictor = PredSaturate
	if got := cfg.PredictorThreshold(); got != 0 {
		t.Fatalf("Saturate default threshold = %d, want 0", got)
	}
	cfg.RoW.Threshold = 5
	if got := cfg.PredictorThreshold(); got != 5 {
		t.Fatalf("explicit threshold = %d, want 5", got)
	}
}

func TestClone(t *testing.T) {
	a := Default()
	b := a.Clone()
	b.NumCores = 7
	b.RoW.Detection = DetectEW
	if a.NumCores == 7 || a.RoW.Detection == DetectEW {
		t.Fatal("clone aliases the original")
	}
}

func TestStringers(t *testing.T) {
	for _, p := range []AtomicPolicy{PolicyEager, PolicyLazy, PolicyRoW, AtomicPolicy(9)} {
		if p.String() == "" {
			t.Errorf("empty policy string for %d", p)
		}
	}
	for _, d := range []Detection{DetectEW, DetectRW, DetectRWDir, Detection(9)} {
		if d.String() == "" {
			t.Errorf("empty detection string for %d", d)
		}
	}
	for _, k := range []PredictorKind{PredUpDown, PredSaturate, PredTwoUpOneDown, PredictorKind(9)} {
		if k.String() == "" {
			t.Errorf("empty predictor string for %d", k)
		}
	}
}

// TestEarlyAddrCalc: only the ready window needs the address-only pass,
// so it runs under RoW with the RW or RW+Dir detector and nowhere else.
func TestEarlyAddrCalc(t *testing.T) {
	early := map[AtomicPolicy]map[Detection]bool{
		PolicyRoW: {DetectRW: true, DetectRWDir: true},
	}
	for _, p := range []AtomicPolicy{PolicyEager, PolicyLazy, PolicyRoW, PolicyFar} {
		for _, d := range []Detection{DetectEW, DetectRW, DetectRWDir} {
			cfg := Default()
			cfg.Policy, cfg.RoW.Detection = p, d
			if got := cfg.EarlyAddrCalc(); got != early[p][d] {
				t.Errorf("%s with %s: EarlyAddrCalc() = %v, want %v", p, d, got, early[p][d])
			}
		}
	}
}

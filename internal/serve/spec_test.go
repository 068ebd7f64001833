package serve

import (
	"strings"
	"testing"

	"rowsim/internal/config"
	"rowsim/internal/experiments"
)

func normalized(t *testing.T, s SweepSpec) SweepSpec {
	t.Helper()
	if err := s.Normalize(); err != nil {
		t.Fatalf("Normalize(%+v): %v", s, err)
	}
	return s
}

func TestSpecNormalizeDefaults(t *testing.T) {
	s := normalized(t, SweepSpec{Values: []float64{0.5}})
	if s.Workload != "sps" || s.Param != "sharedfrac" {
		t.Errorf("defaults: workload=%q param=%q", s.Workload, s.Param)
	}
	if s.Cores != 8 || s.Instrs != 4000 {
		t.Errorf("defaults: cores=%d instrs=%d", s.Cores, s.Instrs)
	}
	if s.Seed != experiments.DefaultSeed {
		t.Errorf("seed 0 should resolve to the documented default, got %d", s.Seed)
	}
	if len(s.Policies) != 3 || s.Policies[0] != "eager" || s.Policies[2] != "row" {
		t.Errorf("default policies = %v", s.Policies)
	}
}

func TestSpecNormalizeRejects(t *testing.T) {
	cases := []struct {
		name string
		spec SweepSpec
		want string // substring of the error
	}{
		{"no values", SweepSpec{}, "no sweep values"},
		{"bad workload", SweepSpec{Workload: "nope", Values: []float64{1}}, "nope"},
		{"bad param", SweepSpec{Param: "nope", Values: []float64{1}}, "unknown sweep parameter"},
		{"bad policy", SweepSpec{Values: []float64{1}, Policies: []string{"speculative"}}, "unknown policy"},
		{"cores over limit", SweepSpec{Values: []float64{1}, Cores: maxCores + 1}, "out of range"},
		{"negative cores", SweepSpec{Values: []float64{1}, Cores: -4}, "out of range"},
		{"instrs over limit", SweepSpec{Values: []float64{1}, Instrs: maxInstrs + 1}, "out of range"},
		{"negative timeout", SweepSpec{Values: []float64{1}, TimeoutMS: -5}, "timeout_ms"},
		{"too many cells", SweepSpec{Values: make([]float64, MaxCellsPerSweep)}, "limit"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Normalize()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Normalize = %v, want error containing %q", err, c.want)
			}
		})
	}
}

// TestSpecHashCanonical: normalization is part of the canonical form —
// a spec written with explicit defaults hashes identically to one that
// omitted them, so resubmission dedup works across client styles.
func TestSpecHashCanonical(t *testing.T) {
	implicit := normalized(t, SweepSpec{Values: []float64{0.5}})
	explicit := normalized(t, SweepSpec{
		Workload: "sps", Param: "sharedfrac", Values: []float64{0.5},
		Policies: []string{"eager", "lazy", "row"},
		Cores:    8, Instrs: 4000, Seed: experiments.DefaultSeed,
	})
	if implicit.Hash() != explicit.Hash() {
		t.Error("implicit and explicit defaults hash differently")
	}
	other := normalized(t, SweepSpec{Values: []float64{0.6}})
	if other.Hash() == implicit.Hash() {
		t.Error("different values hash identically")
	}
}

func TestSpecCellsExpansion(t *testing.T) {
	s := normalized(t, SweepSpec{
		Param: "hotlines", Values: []float64{1, 16}, Policies: []string{"eager", "row"},
	})
	cells := s.Cells()
	wantKeys := []string{"hotlines=1/eager", "hotlines=1/row", "hotlines=16/eager", "hotlines=16/row"}
	if len(cells) != len(wantKeys) {
		t.Fatalf("got %d cells, want %d", len(cells), len(wantKeys))
	}
	for i, c := range cells {
		if c.Key != wantKeys[i] {
			t.Errorf("cell %d key = %q, want %q", i, c.Key, wantKeys[i])
		}
	}
	// Fractional values keep rowsweep's trimmed rendering.
	f := normalized(t, SweepSpec{Values: []float64{0.25}})
	if got := f.Cells()[0].Key; got != "sharedfrac=0.25/eager" {
		t.Errorf("fractional key = %q", got)
	}
}

// TestSpecConfigsPinned: a cell's configuration comes from
// experiments.Variant.Config, and must stay the one rowserve and
// rowsweep have always run: Table I with the Saturate predictor, the
// RW+Dir detector, forwarding on and the 500M-cycle cap, differing only
// in the policy.
func TestSpecConfigsPinned(t *testing.T) {
	s := normalized(t, SweepSpec{Values: []float64{0.5}, Cores: 6})
	for name, policy := range map[string]config.AtomicPolicy{
		"eager": config.PolicyEager, "lazy": config.PolicyLazy, "row": config.PolicyRoW,
	} {
		want := config.Default()
		want.NumCores = 6
		want.Policy = policy
		want.RoW.Predictor = config.PredSaturate
		want.MaxCycles = 500_000_000
		if got := s.Config(Cell{Policy: name}); *got != *want {
			t.Errorf("%s: config\n got %+v\nwant %+v", name, *got, *want)
		}
	}
}

// TestSpecContentKey: the content address must separate everything
// that changes the simulation and nothing that does not.
func TestSpecContentKey(t *testing.T) {
	base := normalized(t, SweepSpec{Values: []float64{0.5}})
	c := base.Cells()[0]
	k1, err := base.ContentKey(c)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := base.ContentKey(c)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("content key is not deterministic")
	}

	seeded := base
	seeded.Seed = base.Seed + 1
	k3, err := seeded.ContentKey(seeded.Cells()[0])
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Error("different seeds share a content key")
	}

	// Two cells of the same sweep must never collide.
	two := normalized(t, SweepSpec{Values: []float64{0.1, 0.9}})
	ka, _ := two.ContentKey(two.Cells()[0])
	kb, _ := two.ContentKey(two.Cells()[3])
	if ka == kb {
		t.Error("different cells share a content key")
	}
}

func TestSweepIDTenantScoped(t *testing.T) {
	s := normalized(t, SweepSpec{Values: []float64{0.5}})
	a, b := sweepID("alice", s), sweepID("bob", s)
	if a == b {
		t.Error("same spec under two tenants must be two sweeps")
	}
	if a != sweepID("alice", s) {
		t.Error("sweep ID is not deterministic")
	}
}

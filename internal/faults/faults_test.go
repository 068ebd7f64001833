package faults

import (
	"testing"

	"rowsim/internal/coherence"
)

func TestSpecRoundTrip(t *testing.T) {
	cases := []Config{
		{},
		{Seed: 42, JitterProb: 0.2, JitterMax: 12},
		{Seed: 0xdeadbeef, ReorderProb: 0.05, ReorderMax: 64},
		{JitterProb: 0.25, JitterMax: 12, ReorderProb: 0.05, ReorderMax: 64},
		{DupProb: 0.01, DropProb: 0.02},
		{Seed: 1, JitterProb: 1, JitterMax: 8, ReorderProb: 0.5, ReorderMax: 128, DupProb: 0.25, DropProb: 0.125},
	}
	for _, c := range cases {
		spec := c.Spec()
		got, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		if got != c {
			t.Errorf("round trip %q: got %+v, want %+v", spec, got, c)
		}
	}
}

func TestParseSpecNone(t *testing.T) {
	for _, s := range []string{"", "none", "  none  "} {
		c, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		if c.Enabled() {
			t.Errorf("ParseSpec(%q) enabled: %+v", s, c)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, s := range []string{
		"jitter",          // no value
		"warp=0.5",        // unknown key
		"jitter=1.5",      // probability out of range
		"drop=-0.1",       // negative probability
		"seed=zz",         // unparseable seed
		"jitter=0.5:nope", // unparseable max
	} {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q): expected error", s)
		}
	}
}

// TestInjectorDeterminism is the property repro lines rely on: the same
// seed produces the same perturbation sequence.
func TestInjectorDeterminism(t *testing.T) {
	cfg := Config{Seed: 99, JitterProb: 0.5, JitterMax: 16, ReorderProb: 0.2, ReorderMax: 64}
	a, b := New(cfg), New(cfg)
	m := &coherence.Msg{}
	for i := 0; i < 10_000; i++ {
		da := append([]uint64(nil), a.Perturb(m)...)
		db := append([]uint64(nil), b.Perturb(m)...)
		if len(da) != len(db) {
			t.Fatalf("call %d: lengths differ: %v vs %v", i, da, db)
		}
		for j := range da {
			if da[j] != db[j] {
				t.Fatalf("call %d: delays differ: %v vs %v", i, da, db)
			}
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats differ: %+v vs %+v", a.Stats(), b.Stats())
	}
	if a.Stats().Jittered == 0 || a.Stats().Reordered == 0 {
		t.Fatalf("expected jitter and reorder activity, got %+v", a.Stats())
	}
}

func TestInjectorDropAndDup(t *testing.T) {
	m := &coherence.Msg{}
	drop := New(Config{DropProb: 1})
	if got := drop.Perturb(m); len(got) != 0 {
		t.Fatalf("DropProb=1 delivered: %v", got)
	}
	dup := New(Config{DupProb: 1})
	got := dup.Perturb(m)
	if len(got) != 2 {
		t.Fatalf("DupProb=1 produced %v, want 2 deliveries", got)
	}
	if got[1] <= got[0] {
		t.Fatalf("duplicate must arrive after the original: %v", got)
	}
}

func TestDefaultsApplied(t *testing.T) {
	in := New(Config{JitterProb: 0.5, ReorderProb: 0.5})
	if in.Config().JitterMax == 0 || in.Config().ReorderMax == 0 {
		t.Fatalf("magnitude defaults missing: %+v", in.Config())
	}
}

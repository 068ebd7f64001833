package mcheck

import "testing"

// Relabeling tests: the canonical encoding must identify states that
// differ only by a permutation of core ids (and the induced bank/line
// relabeling). The strongest observable consequence is that two
// searches over core-permuted workloads explore identical numbers of
// canonical states.

func relabelCoreLabel(lab string) string {
	// Swap cores 0 and 1 in a 2-core, 1-bank label alphabet
	// (node 2 is the bank).
	swap := func(b byte) byte {
		switch b {
		case '0':
			return '1'
		case '1':
			return '0'
		}
		return b
	}
	out := []byte(lab)
	switch out[0] {
	case 'i', 'x':
		out[1] = swap(out[1])
	case 'd':
		out[1] = swap(out[1])
		out[3] = swap(out[3])
	}
	return string(out)
}

// TestStateKeyCorePermutation drives two models whose programs (and
// choice traces) differ only by swapping cores 0 and 1, and requires
// the canonical key to match after every step.
func TestStateKeyCorePermutation(t *testing.T) {
	progsA := [][]Op{
		{{OpRMW, 0}, {OpLoad, 0}, {OpStore, 0}},
		{{OpLoad, 0}, {OpStore, 0}, {OpRMW, 0}},
	}
	progsB := [][]Op{progsA[1], progsA[0]}
	cfgA := Config{Cores: 2, Lines: 1, Banks: 1, Progs: progsA}
	cfgB := Config{Cores: 2, Lines: 1, Banks: 1, Progs: progsB}
	ma, err := NewModel(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := NewModel(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	ma.settle()
	mb.settle()
	perms := buildPerms(&ma.cfg)

	trace := []string{"i0", "i1", "d0-2", "d2-0", "i0", "d1-2", "x0.0", "d0-2"}
	if ka, kb := ma.stateKey(perms), mb.stateKey(perms); ka != kb {
		t.Fatalf("initial keys differ: %x vs %x", ka, kb)
	}
	for _, lab := range trace {
		cha, oka := ma.findChoice(lab)
		chb, okb := mb.findChoice(relabelCoreLabel(lab))
		if oka != okb {
			t.Fatalf("label %q enabled=%v but relabeled twin enabled=%v", lab, oka, okb)
		}
		if !oka {
			continue
		}
		ma.apply(cha)
		mb.apply(chb)
		if ka, kb := ma.stateKey(perms), mb.stateKey(perms); ka != kb {
			t.Fatalf("keys diverge after %q: %x vs %x", lab, ka, kb)
		}
	}
}

// TestSearchCountCorePermutation requires core-permuted workloads to
// explore exactly the same canonical state space.
func TestSearchCountCorePermutation(t *testing.T) {
	progs := [][]Op{
		{{OpRMW, 0}, {OpStore, 0}},
		{{OpLoad, 0}, {OpRMW, 0}},
	}
	swapped := [][]Op{progs[1], progs[0]}
	ra, err := Check(Config{Cores: 2, Lines: 1, Banks: 1, Progs: progs})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Check(Config{Cores: 2, Lines: 1, Banks: 1, Progs: swapped})
	if err != nil {
		t.Fatal(err)
	}
	if ra.Violation != nil || rb.Violation != nil {
		t.Fatalf("unexpected violation: %v / %v", ra.Violation, rb.Violation)
	}
	if ra.Stats.Visited != rb.Stats.Visited {
		t.Fatalf("permuted workloads explored %d vs %d states", ra.Stats.Visited, rb.Stats.Visited)
	}
}

// TestSearchCountLinePermutation does the same for a line relabeling
// (single bank, so any line permutation is bank-consistent).
func TestSearchCountLinePermutation(t *testing.T) {
	progs := [][]Op{
		{{OpRMW, 0}, {OpStore, 1}},
		{{OpLoad, 1}, {OpStore, 0}},
	}
	swapped := [][]Op{
		{{OpRMW, 1}, {OpStore, 0}},
		{{OpLoad, 0}, {OpStore, 1}},
	}
	ra, err := Check(Config{Cores: 2, Lines: 2, Banks: 1, Progs: progs})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Check(Config{Cores: 2, Lines: 2, Banks: 1, Progs: swapped})
	if err != nil {
		t.Fatal(err)
	}
	if ra.Violation != nil || rb.Violation != nil {
		t.Fatalf("unexpected violation: %v / %v", ra.Violation, rb.Violation)
	}
	if ra.Stats.Visited != rb.Stats.Visited {
		t.Fatalf("line-permuted workloads explored %d vs %d states", ra.Stats.Visited, rb.Stats.Visited)
	}
}

// TestSearchDeterminism runs the same configuration twice and requires
// bit-identical statistics — the property CI leans on when it compares
// explored-state counts across runs.
func TestSearchDeterminism(t *testing.T) {
	cfg := Config{Cores: 2, Lines: 2, Banks: 2, Ops: 3}
	ra, err := Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Stats != rb.Stats {
		t.Fatalf("stats differ across runs: %+v vs %+v", ra.Stats, rb.Stats)
	}
}

// TestBankConsistentPerms checks the permutation builder's admissibility
// filter: with 2 lines on 2 banks, a line swap forces a bank swap, so
// all 2x2 core/line pairs remain; with 2 lines on 1 bank both line
// orders are admissible too.
func TestBankConsistentPerms(t *testing.T) {
	two := Config{Cores: 2, Lines: 2, Banks: 2}
	if got := len(buildPerms(&two)); got != 4 {
		t.Fatalf("c2l2b2: got %d admissible perms, want 4", got)
	}
	one := Config{Cores: 2, Lines: 2, Banks: 1}
	if got := len(buildPerms(&one)); got != 4 {
		t.Fatalf("c2l2b1: got %d admissible perms, want 4", got)
	}
	three := Config{Cores: 3, Lines: 1, Banks: 1}
	if got := len(buildPerms(&three)); got != 6 {
		t.Fatalf("c3l1b1: got %d admissible perms, want 6", got)
	}
}

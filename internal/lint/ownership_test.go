package lint_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rowsim/internal/lint"
)

// TestOwnershipReportFixture walks the shardown fixture from its
// //rowlint:entry root and checks the report classifies every edge
// shape: the scheduler visit, the declared seam, the read-only probe,
// the suppressed crossing, and the seeded violations as unclassified.
func TestOwnershipReportFixture(t *testing.T) {
	ld, _ := sharedLoader(t)
	caseDir, err := filepath.Abs(filepath.Join("testdata", "src", "shardown"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := lint.BuildOwnershipReport(ld, loadCase(t, ld, caseDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 1 || !strings.Contains(rep.Entries[0], "core.Run") {
		t.Errorf("entries = %v, want the fixture's core.Run", rep.Entries)
	}
	classOf := make(map[string]string)
	for _, e := range rep.Edges {
		classOf[e.Kind+" "+e.Target] = e.Class
	}
	want := map[string]string{
		"call core.Core.Tick":         "scheduler",
		"call core.CacheSide.Deliver": "seam",
		"call core.CacheSide.Probe":   "read-only",
		"call core.CacheSide.Mutate":  "unclassified",
		"write core.CacheSide.Hits":   "unclassified",
		"write core.totalTicks":       "unclassified",
		"write core.CacheSide.Misses": "suppressed",
		"alias core.CacheSide.Hits":   "unclassified",
	}
	for key, class := range want {
		if got := classOf[key]; got != class {
			t.Errorf("edge %q classified %q, want %q (all: %v)", key, got, class, classOf)
		}
	}
	if rep.Unclassified < 4 {
		t.Errorf("unclassified = %d, want the 4+ seeded violations", rep.Unclassified)
	}
	if _, err := rep.JSON(); err != nil {
		t.Errorf("report does not marshal: %v", err)
	}
}

// TestRepoOwnershipComplete is the CI gate in test form: the
// whole-program walk from the repo's run-loop entries must classify
// every cross-domain edge — zero unclassified — and every edge must
// carry a class the report vocabulary knows.
func TestRepoOwnershipComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repo; skipped in -short")
	}
	ld, root := sharedLoader(t)
	var pkgs []*lint.Package
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		if hasBuildableGoFiles(path) {
			pkg, err := ld.Load(path)
			if err != nil {
				t.Fatalf("load %s: %v", path, err)
			}
			pkgs = append(pkgs, pkg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := lint.BuildOwnershipReport(ld, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 1 || rep.Entries[0] != "sim.System.run" {
		t.Errorf("entries = %v, want exactly the run loop (sim.System.run)", rep.Entries)
	}
	known := map[string]bool{
		"mesh-mediated": true, "scheduler": true, "seam": true,
		"read-only": true, "message": true, "suppressed": true,
	}
	for _, e := range rep.Edges {
		if e.Class == "unclassified" {
			t.Errorf("unclassified edge: %s -> %s %s %s (%v)", e.From, e.To, e.Kind, e.Target, e.Sites)
		} else if !known[e.Class] {
			t.Errorf("edge %s %s carries unknown class %q", e.Kind, e.Target, e.Class)
		}
	}
	if rep.Unclassified != 0 {
		t.Errorf("report counts %d unclassified edges, want 0", rep.Unclassified)
	}
	// The domain map must cover the simulator's component types.
	for _, dom := range []string{"core[i]", "cache[i]", "bank[i]", "mesh", "sim-global"} {
		if len(rep.Domains[dom]) == 0 {
			t.Errorf("domain map has no types in %s", dom)
		}
	}
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var round lint.OwnershipReport
	if err := json.Unmarshal(b, &round); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
}

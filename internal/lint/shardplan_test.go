package lint_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rowsim/internal/lint"
)

// loadRepoPackages loads every buildable package of the repository
// through the shared loader — the same set `rowlint ./...` lints.
func loadRepoPackages(t *testing.T) (*lint.Loader, string, []*lint.Package) {
	t.Helper()
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
	return ld, root, pkgs
}

// TestRepoParallelReady is the acceptance gate for the parallel
// execution plan: over the repository's own packages the plan must
// prove every declared seam, find zero post-init writes and zero
// shard-domain sync hazards, derive the epoch bound from the
// interconnect timing, and regenerate byte-identically to the
// committed SHARDPLAN.json.
func TestRepoParallelReady(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repo; skipped in -short")
	}
	ld, root, pkgs := loadRepoPackages(t)
	plan, err := lint.BuildShardPlan(ld, pkgs)
	if err != nil {
		t.Fatal(err)
	}

	if !plan.Checks.Clean() {
		t.Errorf("plan checks not clean: %+v", plan.Checks)
	}
	if plan.Checks.UnprovenSeams != 0 || plan.Checks.InitOnlyViolations != 0 ||
		plan.Checks.ShardSyncHazards != 0 || plan.Checks.UnclassifiedEdges != 0 {
		t.Errorf("plan gates must all be zero, got %+v", plan.Checks)
	}
	if len(plan.Entries) != 1 || plan.Entries[0] != "sim.System.run" {
		t.Errorf("entries = %v, want exactly the run loop (sim.System.run)", plan.Entries)
	}

	// The epoch bound is base + hops*(link+router) with hops >= 1; with
	// the committed default timing that is 4 + 1*(1+2) = 7 cycles.
	e := plan.Epoch
	if got := e.BaseCycles + e.MinHops*(e.LinkCycles+e.RouterCycles); e.MinCrossShardLatencyCycles != got {
		t.Errorf("epoch bound %d does not match its own formula (%d)", e.MinCrossShardLatencyCycles, got)
	}
	if e.MinCrossShardLatencyCycles != 7 {
		t.Errorf("epoch bound = %d cycles, want 7 from the default timing", e.MinCrossShardLatencyCycles)
	}

	if len(plan.Shards) != 7 {
		t.Errorf("plan lists %d shard domains, want all 7", len(plan.Shards))
	}
	for _, s := range plan.Shards {
		if s.Assignment == "" {
			t.Errorf("domain %s has no shard assignment", s.Domain)
		}
	}

	legal := map[string]bool{"same-index": true, "buffered": true, "reduction": true, "init-only": true}
	if len(plan.Seams) < 15 {
		t.Errorf("plan lists %d seams, want the repo's 15+", len(plan.Seams))
	}
	for _, s := range plan.Seams {
		if s.Verdict != "proven" {
			t.Errorf("seam %s (%s) is %s with %d finding(s)", s.Func, s.Kind, s.Verdict, s.Findings)
		}
		if !legal[s.Kind] {
			t.Errorf("seam %s carries illegal kind %q", s.Func, s.Kind)
		}
		if strings.TrimSpace(s.Reason) == "" {
			t.Errorf("seam %s has no recorded reason", s.Func)
		}
	}
	// The cache→core upcall seams are declared on interface methods and
	// must list every implementation that was proven.
	fanOut := 0
	for _, s := range plan.Seams {
		if len(s.Implementations) >= 2 {
			fanOut++
		}
	}
	if fanOut == 0 {
		t.Error("no interface seam lists multiple proven implementations")
	}

	// Regeneration must be deterministic and must match the committed
	// artifact — the same drift gate CI enforces.
	data, err := plan.JSON()
	if err != nil {
		t.Fatal(err)
	}
	again, err := lint.BuildShardPlan(ld, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := again.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("plan JSON is not deterministic across rebuilds")
	}
	committed, err := os.ReadFile(filepath.Join(root, "SHARDPLAN.json"))
	if err != nil {
		t.Fatalf("committed plan missing: %v (regenerate with go run ./cmd/rowlint -shard-plan SHARDPLAN.json ./...)", err)
	}
	if want := append(data, '\n'); !bytes.Equal(committed, want) {
		t.Error("committed SHARDPLAN.json drifted from the regenerated plan; run go run ./cmd/rowlint -shard-plan SHARDPLAN.json ./...")
	}
}

// epochsafeFixture loads the epochsafe fixture packages plus the real
// config and interconnect packages (the epoch-bound derivation needs
// them in the linted set).
func epochsafeFixture(t *testing.T) (*lint.Loader, []*lint.Package) {
	t.Helper()
	ld, root := sharedLoader(t)
	caseDir, err := filepath.Abs(filepath.Join("testdata", "src", "epochsafe"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs := loadCase(t, ld, caseDir)
	for _, dir := range []string{"internal/config", "internal/interconnect"} {
		pkg, err := ld.Load(filepath.Join(root, dir))
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return ld, pkgs
}

// TestShardPlanFixtureVerdicts builds the plan over the epochsafe
// fixture and checks every verdict lands where the seeded violations
// say it must: kind mismatches and reachable init-only seams are
// unproven, commutative/buffered/unreachable seams are proven, and the
// gate counters see exactly the seeded violations.
func TestShardPlanFixtureVerdicts(t *testing.T) {
	ld, pkgs := epochsafeFixture(t)
	plan, err := lint.BuildShardPlan(ld, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	verdicts := make(map[string]lint.SeamVerdict)
	for _, s := range plan.Seams {
		verdicts[s.Func] = s
	}
	want := map[string]string{
		"core.Globals.Bump":    "proven",   // increment commutes
		"core.Globals.SetLast": "unproven", // plain store is not a reduction
		"core.Globals.Wire":    "proven",   // unreachable init-only
		"core.Globals.Rewire":  "unproven", // init-only but Tick calls it
		"core.Router.Push":     "proven",   // buffered enqueue into mesh state
		"core.Sink.Ingest":     "unproven", // Spool's implementation breaks same-index
		"core.CacheSide.Spill": "unproven", // same-index writing sim-global
		"core.CacheSide.Evict": "unproven", // malformed kind
		"core.CacheSide.Sweep": "unproven", // missing reason
	}
	for fn, verdict := range want {
		s, ok := verdicts[fn]
		if !ok {
			t.Errorf("plan has no verdict for seam %s (have %v)", fn, plan.Seams)
			continue
		}
		if s.Verdict != verdict {
			t.Errorf("seam %s = %s (%d finding(s)), want %s", fn, s.Verdict, s.Findings, verdict)
		}
	}
	if s := verdicts["core.Sink.Ingest"]; len(s.Implementations) != 2 {
		t.Errorf("interface seam implementations = %v, want CacheSide and Spool", s.Implementations)
	}
	if k := verdicts["core.CacheSide.Evict"].Kind; k != "" {
		t.Errorf("malformed seam kind recorded as %q, want empty", k)
	}
	if c := plan.Checks; c.UnprovenSeams != 6 || c.InitOnlyViolations != 4 ||
		c.ShardSyncHazards != 8 || c.SuppressedFindings != 1 {
		t.Errorf("fixture gate counters = %+v, want 6 unproven / 4 init-only / 8 hazards / 1 suppressed", c)
	}
	if plan.Checks.Clean() {
		t.Error("fixture plan reports clean despite seeded violations")
	}
	if plan.Epoch.MinCrossShardLatencyCycles != 7 {
		t.Errorf("epoch bound = %d, want 7 (derived from the real config package)", plan.Epoch.MinCrossShardLatencyCycles)
	}
}

// TestOwnershipReportInterfaceFanOut: the whole-program walk must
// follow an interface call to every implementation in the module. The
// fixture's entry reaches Sink.Ingest; only by visiting both
// implementations can the report see CacheSide's reduction-seam call
// and Spool's package-level write.
func TestOwnershipReportInterfaceFanOut(t *testing.T) {
	ld, pkgs := epochsafeFixture(t)
	rep, err := lint.BuildOwnershipReport(ld, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 1 || !strings.Contains(rep.Entries[0], "core.Run") {
		t.Errorf("entries = %v, want the fixture's core.Run", rep.Entries)
	}
	type edge struct{ class, seamKind string }
	edges := make(map[string]edge)
	for _, e := range rep.Edges {
		edges[e.Kind+" "+e.Target] = edge{e.Class, e.SeamKind}
	}
	want := map[string]edge{
		// Through the interface: the call itself is the declared seam...
		"call core.Sink.Ingest": {"seam", "same-index"},
		// ...and the walk must reach both implementations' effects:
		// CacheSide.Ingest folds into the reduction seam, Spool.Ingest
		// writes shared package state.
		"call core.Globals.Bump": {"seam", "reduction"},
		"write core.globalSpill": {"unclassified", ""},
		// The other declared crossings keep their kinds; the mesh call
		// classifies as mesh-mediated before the seam check sees it.
		"call core.Globals.Rewire": {"seam", "init-only"},
		"call core.Router.Push":    {"mesh-mediated", ""},
		// Post-init config writes are walked and left unclassified.
		"write config.Config.Warmed": {"unclassified", ""},
	}
	for key, w := range want {
		got, ok := edges[key]
		if !ok {
			t.Errorf("report is missing edge %q (interface fan-out lost?); have %v", key, edges)
			continue
		}
		if got != w {
			t.Errorf("edge %q = %+v, want %+v", key, got, w)
		}
	}
}

// TestShardPlanJSONRoundTrip: the plan marshals deterministically,
// survives a decode/encode cycle byte-for-byte, and loses no seam
// kind or reason on the way — the properties CI's drift gate and the
// future executor both depend on.
func TestShardPlanJSONRoundTrip(t *testing.T) {
	ld, pkgs := epochsafeFixture(t)
	plan, err := lint.BuildShardPlan(ld, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	data, err := plan.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var round lint.ShardPlan
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatalf("plan JSON does not parse: %v", err)
	}
	data2, err := round.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Errorf("plan JSON is not stable across a decode/encode cycle:\n%s\n---\n%s", data, data2)
	}
	if round.Version != 1 || round.Module == "" {
		t.Errorf("round-tripped header lost: version=%d module=%q", round.Version, round.Module)
	}
	for i, s := range round.Seams {
		if s.Reason != plan.Seams[i].Reason || s.Kind != plan.Seams[i].Kind {
			t.Errorf("seam %s lost kind/reason in round trip: %+v vs %+v", s.Func, s, plan.Seams[i])
		}
	}
	// The HTML-unsafe formula must survive unescaped.
	if !bytes.Contains(data, []byte("hops >= 1")) {
		t.Errorf("formula was escaped or lost:\n%s", data)
	}
}

// TestOwnershipReportJSONRoundTrip: the edge map keeps seam kinds and
// reasons through a decode/encode cycle, byte-for-byte.
func TestOwnershipReportJSONRoundTrip(t *testing.T) {
	ld, pkgs := epochsafeFixture(t)
	rep, err := lint.BuildOwnershipReport(ld, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var round lint.OwnershipReport
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	data2, err := round.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("report JSON is not stable across a decode/encode cycle")
	}
	kinds := 0
	for _, e := range round.Edges {
		if e.Class == "seam" {
			if e.SeamKind == "" {
				t.Errorf("seam edge %s lost its kind in round trip", e.Target)
			}
			if e.Reason == "" {
				t.Errorf("seam edge %s lost its reason in round trip", e.Target)
			}
			kinds++
		}
	}
	if kinds == 0 {
		t.Error("report has no seam edges to round-trip")
	}
}

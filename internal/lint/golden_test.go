package lint_test

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"rowsim/internal/lint"
)

// -update regenerates the expected.txt golden files from current
// analyzer output:
//
//	go test ./internal/lint -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden expected.txt files")

// One loader for the whole test binary: the from-source stdlib
// importer is the expensive part, and its results are shared across
// every fixture case and the repo-wide scan.
var (
	loaderOnce sync.Once
	loader     *lint.Loader
	modRoot    string
	loaderErr  error
)

func sharedLoader(t *testing.T) (*lint.Loader, string) {
	t.Helper()
	loaderOnce.Do(func() {
		cwd, err := os.Getwd()
		if err != nil {
			loaderErr = err
			return
		}
		root, path, err := lint.FindModule(cwd)
		if err != nil {
			loaderErr = err
			return
		}
		modRoot = root
		loader = lint.NewLoader(root, path)
	})
	if loaderErr != nil {
		t.Fatal(loaderErr)
	}
	return loader, modRoot
}

// TestGolden runs every analyzer over each fixture case under
// testdata/src/<case>/ and compares the full rendered finding list —
// suppressed findings included — against the case's expected.txt.
// Each case seeds violations the analyzer must catch, legal idioms it
// must not flag, and suppression/malformed-directive behaviour.
func TestGolden(t *testing.T) {
	ld, _ := sharedLoader(t)
	caseRoot := filepath.Join("testdata", "src")
	cases, err := os.ReadDir(caseRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("no golden cases under testdata/src")
	}
	for _, c := range cases {
		if !c.IsDir() {
			continue
		}
		t.Run(c.Name(), func(t *testing.T) {
			caseDir, err := filepath.Abs(filepath.Join(caseRoot, c.Name()))
			if err != nil {
				t.Fatal(err)
			}
			got := renderCase(t, ld, caseDir)
			goldenPath := filepath.Join(caseDir, "expected.txt")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantBytes, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if want := string(wantBytes); got != want {
				t.Errorf("findings diverge from %s:\n--- want ---\n%s--- got ---\n%s", goldenPath, want, got)
			}
		})
	}
}

// renderCase lints every package directory under caseDir and renders
// the findings with case-relative paths, one per line.
func renderCase(t *testing.T, ld *lint.Loader, caseDir string) string {
	t.Helper()
	var b strings.Builder
	for _, pkg := range loadCase(t, ld, caseDir) {
		for _, f := range lint.Run(pkg, lint.Analyzers()) {
			if rel, err := filepath.Rel(caseDir, f.Pos.Filename); err == nil {
				f.Pos.Filename = filepath.ToSlash(rel)
			}
			b.WriteString(f.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// loadCase loads every fixture package under caseDir.
func loadCase(t *testing.T, ld *lint.Loader, caseDir string) []*lint.Package {
	t.Helper()
	var pkgDirs []string
	err := filepath.WalkDir(caseDir, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != caseDir && hasGoFiles(path) {
			pkgDirs = append(pkgDirs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(pkgDirs)
	if len(pkgDirs) == 0 {
		t.Fatalf("case %s has no fixture packages", caseDir)
	}
	var pkgs []*lint.Package
	for _, dir := range pkgDirs {
		pkg, err := ld.Load(dir)
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// TestGoldenCasesCoverEveryAnalyzer: each registered analyzer must
// catch at least two seeded violations somewhere in the fixture set —
// the acceptance bar that keeps an analyzer from silently rotting into
// a no-op.
func TestGoldenCasesCoverEveryAnalyzer(t *testing.T) {
	ld, _ := sharedLoader(t)
	counts := make(map[string]int)
	caseRoot := filepath.Join("testdata", "src")
	cases, err := os.ReadDir(caseRoot)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if !c.IsDir() {
			continue
		}
		caseDir, err := filepath.Abs(filepath.Join(caseRoot, c.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range loadCase(t, ld, caseDir) {
			for _, f := range lint.Run(pkg, lint.Analyzers()) {
				if !f.Suppressed {
					counts[f.Analyzer]++
				}
			}
		}
	}
	for _, a := range lint.Analyzers() {
		if counts[a.Name] < 2 {
			t.Errorf("analyzer %s catches %d seeded violations in testdata, want >= 2", a.Name, counts[a.Name])
		}
	}
	// The directive parser's own findings count too.
	if counts["rowlint"] < 2 {
		t.Errorf("malformed directives produce %d findings in testdata, want >= 2", counts["rowlint"])
	}
}

// TestRepoIsClean runs the full analyzer suite over the repository's
// own packages — the same gate CI enforces with `go run ./cmd/rowlint
// ./...` — and fails on any active finding. Suppressed findings are
// legal but must carry reasons (the parser enforces that).
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repo; skipped in -short")
	}
	ld, root := sharedLoader(t)
	var dirs []string
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
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		pkg, err := ld.Load(dir)
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		for _, f := range lint.Run(pkg, lint.Analyzers()) {
			if !f.Suppressed {
				t.Errorf("repo not rowlint-clean: %s", f.String())
			}
		}
	}
}

func hasBuildableGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		return true
	}
	return false
}

// Command rowlint runs the simulator-aware static analyzers from
// internal/lint over the repository:
//
//	go run ./cmd/rowlint ./...
//
// It exits 1 when any active finding remains (append `|| true` for an
// advisory run) and 2 on a usage or load error. Suppressed findings
// (//rowlint:ignore <analyzer> <reason>) are counted in the summary and
// listed with -v; -json prints every finding as a JSON array instead.
// The pass is stdlib-only: it loads and type-checks packages with
// go/parser + go/types, so it needs no network and no tools beyond the
// Go distribution.
//
// Fast pre-commit runs: -only=<analyzer,...> restricts the analyzer
// set and -changed[=<git-ref>] restricts linting to packages with
// files modified since the ref (scripts/precommit.sh wires the latter).
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"rowsim/internal/cli"
	"rowsim/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// changedFlag implements -changed[=<git-ref>]: bare -changed compares
// the working tree against HEAD, -changed=<ref> against the ref.
type changedFlag struct {
	set bool
	ref string
}

func (c *changedFlag) String() string   { return c.ref }
func (c *changedFlag) IsBoolFlag() bool { return true }

func (c *changedFlag) Set(v string) error {
	c.set = true
	if v == "" || v == "true" {
		c.ref = "HEAD"
	} else {
		c.ref = v
	}
	return nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("rowlint", stderr)
	verbose := fs.Bool("v", false, "also list suppressed findings")
	only := fs.String("only", "", "comma-separated analyzer subset (default: all)")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array (suppressed included) instead of text")
	var changed changedFlag
	fs.Var(&changed, "changed", "lint only packages with files modified since the given git ref (bare -changed: HEAD)")
	if code, ok := cli.Parse(fs, args); !ok {
		return code
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(stderr, "rowlint:", err)
		return 2
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "rowlint:", err)
		return 2
	}
	modRoot, modPath, err := lint.FindModule(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "rowlint:", err)
		return 2
	}

	dirs, err := expandPatterns(cwd, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "rowlint:", err)
		return 2
	}
	if len(dirs) == 0 {
		fmt.Fprintln(stderr, "rowlint: no packages match", strings.Join(patterns, " "))
		return 2
	}
	if changed.set {
		dirs, err = filterChanged(modRoot, changed.ref, dirs)
		if err != nil {
			fmt.Fprintln(stderr, "rowlint:", err)
			return 2
		}
		if len(dirs) == 0 {
			fmt.Fprintf(stderr, "rowlint: no packages changed since %s\n", changed.ref)
			return 0
		}
	}

	loader := lint.NewLoader(modRoot, modPath)
	var pkgs []*lint.Package
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			fmt.Fprintf(stderr, "rowlint: %s: %v\n", dir, err)
			return 2
		}
		if pkg == nil {
			continue // no buildable non-test Go files
		}
		pkgs = append(pkgs, pkg)
	}

	var findings []lint.Finding
	for _, pkg := range pkgs {
		findings = append(findings, lint.Run(pkg, analyzers)...)
	}

	active, suppressed := 0, 0
	for _, f := range findings {
		if f.Suppressed {
			suppressed++
		} else {
			active++
		}
	}
	summary := fmt.Sprintf("rowlint: %d finding(s), %d suppressed, %d package(s)",
		active, suppressed, len(pkgs))
	if *jsonOut {
		// Keep stdout parseable: the JSON array is the only thing on it.
		if err := writeJSON(stdout, cwd, findings); err != nil {
			fmt.Fprintln(stderr, "rowlint:", err)
			return 2
		}
		fmt.Fprintln(stderr, summary)
	} else {
		for _, f := range findings {
			if !f.Suppressed || *verbose {
				fmt.Fprintln(stdout, rel(cwd, f))
			}
		}
		fmt.Fprintln(stdout, summary)
	}

	if active > 0 {
		return 1
	}
	return 0
}

// filterChanged keeps only the package directories holding files git
// reports as modified since ref (committed diffs, staged and unstaged
// edits, plus untracked files).
func filterChanged(modRoot, ref string, dirs []string) ([]string, error) {
	changedDirs := make(map[string]bool)
	record := func(out []byte) {
		for _, line := range strings.Split(string(out), "\n") {
			line = strings.TrimSpace(line)
			if line == "" {
				continue
			}
			changedDirs[filepath.Join(modRoot, filepath.FromSlash(filepath.Dir(line)))] = true
		}
	}
	diff := exec.Command("git", "-C", modRoot, "diff", "--name-only", ref, "--")
	out, err := diff.Output()
	if err != nil {
		return nil, fmt.Errorf("-changed needs a git checkout: git diff --name-only %s: %v", ref, err)
	}
	record(out)
	untracked := exec.Command("git", "-C", modRoot, "ls-files", "--others", "--exclude-standard")
	out, err = untracked.Output()
	if err != nil {
		return nil, fmt.Errorf("-changed needs a git checkout: git ls-files: %v", err)
	}
	record(out)

	var kept []string
	for _, dir := range dirs {
		if changedDirs[dir] {
			kept = append(kept, dir)
		}
	}
	return kept, nil
}

// jsonFinding is the -json output shape: one finding per element,
// suppressed ones included with their recorded reason.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
	Reason     string `json:"reason,omitempty"`
}

func writeJSON(stdout io.Writer, cwd string, findings []lint.Finding) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		file := f.Pos.Filename
		if r, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(r, "..") {
			file = filepath.ToSlash(r)
		}
		out = append(out, jsonFinding{
			File:       file,
			Line:       f.Pos.Line,
			Analyzer:   f.Analyzer,
			Message:    f.Message,
			Suppressed: f.Suppressed,
			Reason:     f.Reason,
		})
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// selectAnalyzers resolves the -only flag against the registry.
func selectAnalyzers(only string) ([]*lint.Analyzer, error) {
	all := lint.Analyzers()
	if only == "" {
		return all, nil
	}
	byName := make(map[string]*lint.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var picked []*lint.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		picked = append(picked, a)
	}
	return picked, nil
}

// expandPatterns turns package patterns (".", "./...", "./internal/sim")
// into a sorted list of directories containing non-test Go files.
// testdata, vendor, hidden and underscore-prefixed directories are
// skipped, matching the go tool's matching rules.
func expandPatterns(cwd string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) error {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return err
		}
		if !seen[abs] && hasGoFiles(abs) {
			seen[abs] = true
			dirs = append(dirs, abs)
		}
		return nil
	}
	for _, pat := range patterns {
		if !strings.HasSuffix(pat, "/...") {
			if err := add(filepath.Join(cwd, pat)); err != nil {
				return nil, err
			}
			continue
		}
		root := filepath.Join(cwd, strings.TrimSuffix(pat, "/..."))
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return add(path)
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasGoFiles reports whether the directory holds at least one
// buildable non-test Go file.
func hasGoFiles(dir string) bool {
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

// rel renders a finding with the file path relative to the working
// directory when possible.
func rel(cwd string, f lint.Finding) string {
	s := f.String()
	if r, err := filepath.Rel(cwd, f.Pos.Filename); err == nil && !strings.HasPrefix(r, "..") {
		f.Pos.Filename = r
		s = f.String()
	}
	return s
}

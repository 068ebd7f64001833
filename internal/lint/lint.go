// Package lint implements rowlint, the simulator-aware static-analysis
// pass. Two of the repo's hardest-won contracts — byte-identical
// determinism and the zero-alloc hot path — are invariants the type
// system cannot express; rowlint turns them into build-time checks.
// The driver is stdlib-only (go/ast, go/parser, go/types): the module
// has no external dependencies and must stay hermetic.
//
// Analyzers report Findings; a finding can be silenced at its site with
//
//	//rowlint:ignore <analyzer> <reason>
//
// where the reason is mandatory (a suppression without a recorded
// justification is itself a finding). A directive on a line of its own
// applies to the next line; a trailing directive applies to its own
// line. Hot-path functions opt into the noalloc analyzer with a
// //rowlint:noalloc line in their doc comment.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer (or by the
// directive parser itself, under the pseudo-analyzer name "rowlint").
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string

	// Suppressed marks a finding silenced by a //rowlint:ignore
	// directive; Reason carries the directive's justification.
	Suppressed bool
	Reason     string
}

// String renders the finding the way the CLI and golden files print it:
// file:line: analyzer: message. Suppressed findings carry the reason.
func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
	if f.Suppressed {
		s += fmt.Sprintf(" (suppressed: %s)", f.Reason)
	}
	return s
}

// Analyzer is one named check run over a loaded package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one analyzer's view of one package and accumulates its
// findings.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	findings []Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// DeterministicPackages names the packages whose behaviour must be
// byte-reproducible across runs and hosts: everything the simulated
// system is built from. Experiment harnesses, CLIs and reporting
// packages may consult wall clocks and iterate maps freely; these may
// not. Matching is by the final import-path element, so the testdata
// fixtures under internal/lint/testdata score the same way the real
// packages do.
var DeterministicPackages = map[string]bool{
	"sim":          true,
	"coherence":    true,
	"cache":        true,
	"core":         true,
	"interconnect": true,
	"predictor":    true,
	"workload":     true,
	// The model checker's explored-state counts are compared across
	// runs and hosts in CI; its search order may not depend on map
	// iteration or wall clocks any more than the simulator may.
	"mcheck": true,
}

// Deterministic reports whether the pass's package is part of the
// deterministic core (see DeterministicPackages).
func (p *Pass) Deterministic() bool {
	path := p.Pkg.Path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		path = path[i+1:]
	}
	return DeterministicPackages[path]
}

// Analyzers is the registry, in the order checks are run and reported.
func Analyzers() []*Analyzer {
	return []*Analyzer{MapOrder, NoAlloc, WallClock}
}

// analyzerKnown reports whether name is a registered analyzer (used to
// validate //rowlint:ignore directives).
func analyzerKnown(name string) bool {
	for _, a := range Analyzers() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// Run executes the analyzers over one loaded package, applies the
// package's suppression directives, and returns every finding —
// suppressed ones included, marked — sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) []Finding {
	var all []Finding
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Pkg: pkg}
		a.Run(pass)
		all = append(all, pass.findings...)
	}
	dirs, malformed := parseDirectives(pkg)
	all = append(all, malformed...)
	for i := range all {
		if d := dirs.match(all[i]); d != nil {
			all[i].Suppressed = true
			all[i].Reason = d.reason
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return all
}

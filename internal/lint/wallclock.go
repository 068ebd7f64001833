package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// WallClock bans ambient nondeterminism: wall-clock reads (time.Now
// and friends), the global math/rand source (whose state is shared,
// seeded from the clock, and lock-protected), and environment lookups.
// Simulated components must take time from the simulation clock,
// randomness from a seeded *xrand.Rand (or a locally constructed
// rand.New(rand.NewSource(seed))), and configuration from injected
// Config values — never from the host.
//
// The check is default-deny: every package is checked unless its path
// is under cmd/ (CLIs report wall time to humans) or its final element
// is named in WallClockAllowed. The deterministic core is checked
// unconditionally — listing a DeterministicPackages member in the
// allowlist has no effect (and is itself rejected by a test).
//
// The deterministic core is also banned from the host scheduler: no go
// statements, channels (types, sends, receives, close), select, or
// sync/sync/atomic imports. The simulator is one sequential event
// loop; harnesses outside the core may run whole cells concurrently.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc:  "bans wall clocks, global math/rand and env reads outside allowlisted packages, and concurrency in the deterministic core",
	Run:  runWallClock,
}

// WallClockAllowed names the non-core packages that may read ambient
// host state, matched — like DeterministicPackages — by the final
// import-path element. Keep every entry justified: the allowlist is
// the single place to audit for clock creep, which is why it replaces
// scattered //rowlint:ignore directives for whole-package exemptions.
var WallClockAllowed = map[string]bool{
	// The rowserve daemon's observability surface: uptime, Retry-After
	// estimates and per-worker "since" stamps are wall-clock by nature
	// and never feed simulated state. (Timers and durations — what the
	// lifecycle supervisor uses — are legal everywhere; only ambient
	// reads are banned, so nothing else needs listing today.)
	"serve": true,
}

// wallclockChecked decides whether the analyzer runs on a package:
// deterministic core always, cmd/ and allowlisted packages never,
// everything else by default.
func wallclockChecked(path string) bool {
	base := path
	if i := strings.LastIndex(base, "/"); i >= 0 {
		base = base[i+1:]
	}
	if DeterministicPackages[base] {
		return true
	}
	if strings.HasPrefix(path, "cmd/") || strings.Contains(path, "/cmd/") {
		return false
	}
	return !WallClockAllowed[base]
}

// wallclockBanned maps package path -> banned member -> replacement
// hint. Only ambient-state entry points are listed; deterministic
// helpers from the same packages (time.Duration, rand.New,
// rand.NewSource, os.Exit) stay legal.
var wallclockBanned = map[string]map[string]string{
	"time": {
		"Now":   "take the cycle count from the simulation clock",
		"Since": "take the cycle count from the simulation clock",
		"Until": "take the cycle count from the simulation clock",
	},
	"os": {
		"Getenv":    "inject the setting through config.Config",
		"LookupEnv": "inject the setting through config.Config",
		"Environ":   "inject the setting through config.Config",
		"ExpandEnv": "inject the setting through config.Config",
	},
	"math/rand": {
		"Int": "use a seeded *xrand.Rand", "Intn": "use a seeded *xrand.Rand",
		"Int31": "use a seeded *xrand.Rand", "Int31n": "use a seeded *xrand.Rand",
		"Int63": "use a seeded *xrand.Rand", "Int63n": "use a seeded *xrand.Rand",
		"Uint32": "use a seeded *xrand.Rand", "Uint64": "use a seeded *xrand.Rand",
		"Float32": "use a seeded *xrand.Rand", "Float64": "use a seeded *xrand.Rand",
		"ExpFloat64": "use a seeded *xrand.Rand", "NormFloat64": "use a seeded *xrand.Rand",
		"Perm": "use a seeded *xrand.Rand", "Shuffle": "use a seeded *xrand.Rand",
		"Seed": "use a seeded *xrand.Rand", "Read": "use a seeded *xrand.Rand",
	},
	"math/rand/v2": {
		"Int": "use a seeded *xrand.Rand", "IntN": "use a seeded *xrand.Rand",
		"Int32": "use a seeded *xrand.Rand", "Int32N": "use a seeded *xrand.Rand",
		"Int64": "use a seeded *xrand.Rand", "Int64N": "use a seeded *xrand.Rand",
		"Uint32": "use a seeded *xrand.Rand", "Uint64": "use a seeded *xrand.Rand",
		"Float32": "use a seeded *xrand.Rand", "Float64": "use a seeded *xrand.Rand",
		"ExpFloat64": "use a seeded *xrand.Rand", "NormFloat64": "use a seeded *xrand.Rand",
		"Perm": "use a seeded *xrand.Rand", "Shuffle": "use a seeded *xrand.Rand",
		"N": "use a seeded *xrand.Rand",
	},
}

func runWallClock(pass *Pass) {
	if !wallclockChecked(pass.Pkg.Path) {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pass.Pkg.ObjectOf(id).(*types.PkgName)
			if !ok {
				return true
			}
			path := pn.Imported().Path()
			hint, banned := wallclockBanned[path][sel.Sel.Name]
			if !banned {
				return true
			}
			pass.Reportf(sel.Pos(),
				"%s.%s reads ambient host state, which breaks run-to-run determinism; %s",
				id.Name, sel.Sel.Name, hint)
			return true
		})
	}
	if pass.Deterministic() {
		checkConcurrency(pass)
	}
}

// checkConcurrency reports every construct that would let the host
// scheduler decide an order inside a deterministic package.
func checkConcurrency(pass *Pass) {
	const why = " hands ordering to the host scheduler; the deterministic core is one sequential event loop"
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ImportSpec:
				if path, _ := strconv.Unquote(n.Path.Value); path == "sync" || path == "sync/atomic" {
					pass.Reportf(n.Pos(), "import of %s%s", path, why)
				}
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "go statement%s", why)
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(), "select%s", why)
			case *ast.SendStmt:
				pass.Reportf(n.Pos(), "channel send%s", why)
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					pass.Reportf(n.Pos(), "channel receive%s", why)
				}
			case *ast.ChanType:
				pass.Reportf(n.Pos(), "channel type%s", why)
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" && isBuiltin(pass.Pkg, id) {
					pass.Reportf(n.Pos(), "close%s", why)
				}
			}
			return true
		})
	}
}

package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed and type-checked package.
type Package struct {
	Path string // import path ("rowsim/internal/sim")
	Dir  string // absolute directory

	Fset  *token.FileSet
	Files []*ast.File
	// Src holds each file's source bytes by filename, used by the
	// suppression parser to decide whether a directive stands alone on
	// its line.
	Src map[string][]byte

	Types *types.Package
	Info  *types.Info

	// TypeErrors collects type-checking problems. Analysis proceeds
	// with partial type information; `go build` is the authority on
	// whether the code compiles.
	TypeErrors []error
}

// TypeOf returns the static type of an expression, or nil when type
// checking could not resolve it. Analyzers treat nil conservatively
// (no finding).
func (p *Package) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// ObjectOf resolves an identifier to its object (nil when unknown).
func (p *Package) ObjectOf(id *ast.Ident) types.Object {
	if p.Info == nil {
		return nil
	}
	if o := p.Info.ObjectOf(id); o != nil {
		return o
	}
	return nil
}

// Loader parses and type-checks packages of one module, resolving
// module-internal imports itself and delegating the standard library
// to the toolchain's from-source importer. Results are memoized, so
// linting the whole repo type-checks each dependency once.
//
// The loader is not safe for concurrent use.
type Loader struct {
	ModRoot string // absolute module root (directory of go.mod)
	ModPath string // module path from go.mod

	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*Package // by import path

	loading map[string]bool // cycle guard
}

// NewLoader builds a loader for the module rooted at modRoot.
func NewLoader(modRoot, modPath string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		ModRoot: modRoot,
		ModPath: modPath,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

// FindModule walks upward from dir to the enclosing go.mod and returns
// the module root and module path.
func FindModule(dir string) (root, path string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// pathFor maps a directory inside the module to its import path.
func (l *Loader) pathFor(dir string) string {
	rel, err := filepath.Rel(l.ModRoot, dir)
	if err != nil || rel == "." {
		return l.ModPath
	}
	return l.ModPath + "/" + filepath.ToSlash(rel)
}

// dirFor maps a module-internal import path to its directory.
func (l *Loader) dirFor(path string) string {
	rel := strings.TrimPrefix(path, l.ModPath)
	rel = strings.TrimPrefix(rel, "/")
	return filepath.Join(l.ModRoot, filepath.FromSlash(rel))
}

// Load parses and type-checks the package in dir (non-test files only:
// tests may freely use maps, clocks and fmt). The result is memoized
// by import path.
func (l *Loader) Load(dir string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path := l.pathFor(dir)
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	pkg := &Package{
		Path: path,
		Dir:  dir,
		Fset: l.fset,
		Src:  make(map[string][]byte),
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		},
	}
	for _, name := range names {
		full := filepath.Join(dir, name)
		src, err := os.ReadFile(full)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.fset, full, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		pkg.Src[full] = src
		pkg.Files = append(pkg.Files, f)
	}

	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error:       func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check never fails hard with a non-nil Error handler; partial
	// information is recorded in pkg.Info either way.
	pkg.Types, _ = conf.Check(path, l.fset, pkg.Files, pkg.Info)

	l.pkgs[path] = pkg
	return pkg, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModRoot, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths load
// through the loader, everything else through the from-source stdlib
// importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		p, err := l.Load(l.dirFor(path))
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

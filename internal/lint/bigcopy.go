package lint

import (
	"go/ast"
	"go/types"
	"runtime"
)

// bigCopyThreshold is the struct-copy size (bytes) above which bigcopy
// reports. It follows the profile: duffcopy shows up for copies of a
// couple of cache lines and beyond.
const bigCopyThreshold int64 = 128

// BigCopy flags by-value copies of large structs and arrays on the
// hot path: the PR 8 profile attributes ~5% of per-visit cost to
// runtime.duffcopy, i.e. to values large enough that the compiler
// copies them with a Duff's-device loop. Inside every function of the
// deterministic simulator core (DeterministicPackages — the code the
// run loop executes per visit) and every //rowlint:noalloc function
// elsewhere, the analyzer reports:
//
//   - arguments passing a large struct by value
//   - returning a large struct by value
//   - assignments and :=/deref copies of a large struct
//   - range loops whose value variable copies a large element
//
// Sizes come from go/types with the gc compiler's layout for the host
// architecture. The fix is to pass a pointer (or restructure so the
// large value never moves); a justified copy — construction-time code,
// a deliberate defensive copy — carries //rowlint:ignore bigcopy
// <reason>.
var BigCopy = &Analyzer{
	Name: "bigcopy",
	Doc:  "flags by-value struct copies above a size threshold on the simulator hot path",
	Run:  runBigCopy,
}

func runBigCopy(pass *Pass) {
	sizes := types.SizesFor("gc", runtime.GOARCH)
	if sizes == nil {
		sizes = types.SizesFor("gc", "amd64")
	}
	hotPackage := pass.Deterministic()
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !hotPackage && !funcHasNoallocAnnotation(fd) {
				continue
			}
			checkBigCopies(pass, sizes, fd)
		}
	}
}

func checkBigCopies(pass *Pass, sizes types.Sizes, fd *ast.FuncDecl) {
	pkg := pass.Pkg
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if pkg.Info != nil {
				if tv, ok := pkg.Info.Types[n.Fun]; ok && tv.IsType() {
					return true // conversion, not a call boundary
				}
			}
			for _, arg := range n.Args {
				if sz, t := bigValue(pkg, sizes, arg); sz > 0 {
					pass.Reportf(arg.Pos(), "argument copies %d-byte value of type %s (threshold %d); pass a pointer",
						sz, renderType(t), bigCopyThreshold)
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if sz, t := bigValue(pkg, sizes, res); sz > 0 {
					pass.Reportf(res.Pos(), "return copies %d-byte value of type %s (threshold %d); return a pointer or write through one",
						sz, renderType(t), bigCopyThreshold)
				}
			}
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				if sz, t := bigValue(pkg, sizes, rhs); sz > 0 {
					pass.Reportf(rhs.Pos(), "assignment copies %d-byte value of type %s (threshold %d); keep a pointer instead",
						sz, renderType(t), bigCopyThreshold)
				}
			}
		case *ast.RangeStmt:
			if n.Value == nil {
				return true
			}
			if t := pkg.TypeOf(n.Value); t != nil {
				if sz := sizeOfBulk(sizes, t); sz > bigCopyThreshold {
					pass.Reportf(n.Value.Pos(), "range value copies each %d-byte element of type %s (threshold %d); range over the index instead",
						sz, renderType(t), bigCopyThreshold)
				}
			}
		}
		return true
	})
}

// bigValue reports the size of the copy an expression produces when it
// exceeds the threshold (0 otherwise). Only expressions that read an
// existing value copy: composite literals construct in place, and
// address-taking moves a pointer.
func bigValue(pkg *Package, sizes types.Sizes, e ast.Expr) (int64, types.Type) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return bigValue(pkg, sizes, e.X)
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr, *ast.CallExpr, *ast.TypeAssertExpr:
		t := pkg.TypeOf(e)
		if t == nil {
			return 0, nil
		}
		if sz := sizeOfBulk(sizes, t); sz > bigCopyThreshold {
			return sz, t
		}
	}
	return 0, nil
}

// sizeOfBulk returns the size of a struct or array type (0 for
// pointers, interfaces, slices, maps, basics — their copies are one or
// two words regardless of payload).
func sizeOfBulk(sizes types.Sizes, t types.Type) (sz int64) {
	switch t.Underlying().(type) {
	case *types.Struct, *types.Array:
	default:
		return 0
	}
	// Partial type information (a fixture with deliberate type errors)
	// can leave invalid component types; treat unsizeable as size 0.
	defer func() {
		if recover() != nil {
			sz = 0
		}
	}()
	return sizes.Sizeof(t)
}

// renderType renders a type compactly: pkg.Name for named types, the
// full spelling otherwise.
func renderType(t types.Type) string {
	if t == nil {
		return "<unknown>"
	}
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
		return named.Obj().Pkg().Name() + "." + named.Obj().Name()
	}
	return t.String()
}

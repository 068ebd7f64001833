package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NoAlloc enforces hot-path purity: a function whose doc comment
// carries //rowlint:noalloc opts into a ban on allocation-prone
// constructs. The *SteadyStateAllocs* tests measure what the paths
// they run allocate and require zero, and scripts/noalloc_cover.sh
// requires every annotated function to run inside one of them; this
// analyzer is the half that holds on every branch, run or not:
//
//   - calls into package fmt (every verb formats through interfaces)
//   - function literals capturing enclosing locals (closure allocation)
//   - append to a local slice declared without capacity
//     (append to recycled fields/params is amortized-free and legal)
//   - map, slice, make and new expressions
//   - interface boxing: passing, assigning or converting a concrete
//     value into an interface, and panic (its operand is boxed)
//
// The analysis propagates one level through the package's call graph:
// a //rowlint:noalloc function calling a same-package callee that is
// itself not annotated is checked against the callee's body — a callee
// containing allocation-prone constructs is reported at the call site.
// Annotated callees are trusted here (they are checked in full on
// their own); cross-package and interface calls are trusted too, and
// propagation is deliberately one level deep so a finding is always
// either in the annotated function or one call away from it. Cold
// branches inside a hot function — error reporting, lazy
// initialization — carry //rowlint:ignore noalloc <reason>; an
// allocating callee is fixed by annotating it (and suppressing inside
// it where justified) or by hoisting the call off the hot path.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc:  "bans allocation-prone constructs in //rowlint:noalloc functions and their direct callees",
	Run:  runNoAlloc,
}

// reporter abstracts the finding sink so the same construct walk both
// reports (annotated functions) and probes (their callees).
type reporter func(pos token.Pos, format string, args ...any)

func runNoAlloc(pass *Pass) {
	decls := packageFuncDecls(pass.Pkg)
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !funcHasNoallocAnnotation(fd) {
				continue
			}
			walkAllocs(pass.Pkg, fd, pass.Reportf)
			checkCallees(pass, fd, decls)
		}
	}
}

// packageFuncDecls indexes the package's function and method
// declarations by their type-checker objects, for call-site resolution.
func packageFuncDecls(pkg *Package) map[*types.Func]*ast.FuncDecl {
	decls := make(map[*types.Func]*ast.FuncDecl)
	if pkg.Info == nil {
		return decls
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				decls[obj] = fd
			}
		}
	}
	return decls
}

// checkCallees is the interprocedural step: every same-package callee
// of an annotated function that is not itself annotated is probed for
// allocation-prone constructs, and a hit is reported at the call site.
func checkCallees(pass *Pass, fd *ast.FuncDecl, decls map[*types.Func]*ast.FuncDecl) {
	pkg := pass.Pkg
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeDecl(pkg, call, decls)
		if callee == nil || callee == fd || funcHasNoallocAnnotation(callee) {
			return true
		}
		if msg := probeAllocs(pkg, callee); msg.text != "" {
			pass.Reportf(call.Pos(), "call to %s, which allocates (%s at line %d); annotate the callee //rowlint:noalloc or move the call off the hot path",
				callee.Name.Name, msg.text, msg.line)
		}
		return true
	})
}

// calleeDecl resolves a call expression to a function or method
// declared in this package (nil for builtins, interface methods,
// function values and cross-package calls — all trusted).
func calleeDecl(pkg *Package, call *ast.CallExpr, decls map[*types.Func]*ast.FuncDecl) *ast.FuncDecl {
	if pkg.Info == nil {
		return nil
	}
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	obj, ok := pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	return decls[obj]
}

// probed is the first allocation-prone construct found in a callee.
type probed struct {
	text string
	line int
}

// probeAllocs walks a non-annotated callee and returns its first
// allocation-prone construct (zero value when clean). Suppression
// directives inside the callee are not consulted: suppression belongs
// with an annotation, so the fix for a justified hit is to annotate
// the callee and carry the //rowlint:ignore there.
func probeAllocs(pkg *Package, fd *ast.FuncDecl) probed {
	var first probed
	walkAllocs(pkg, fd, func(pos token.Pos, format string, args ...any) {
		if first.text != "" {
			return
		}
		msg := fmt.Sprintf(format, args...)
		// Keep only the construct name: the advice half of the message
		// addresses the annotated-function case, not the call site.
		if i := strings.Index(msg, ";"); i >= 0 {
			msg = msg[:i]
		}
		first = probed{text: msg, line: pkg.Fset.Position(pos).Line}
	})
	return first
}

// walkAllocs reports every allocation-prone construct in fd's body.
func walkAllocs(pkg *Package, fd *ast.FuncDecl, report reporter) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkAllocCall(pkg, fd, n, report)
		case *ast.FuncLit:
			if capt := capturedLocal(pkg, fd, n); capt != "" {
				report(n.Pos(), "closure captures local %q and may allocate; hoist the state or pass it explicitly", capt)
			}
		case *ast.CompositeLit:
			if t := pkg.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					report(n.Pos(), "slice literal allocates; reuse a recycled buffer")
				case *types.Map:
					report(n.Pos(), "map literal allocates; hoist it to a package-level table")
				}
			}
		case *ast.AssignStmt:
			checkAllocBoxing(pkg, n, report)
		}
		return true
	})
}

// checkAllocCall handles the call-shaped bans: fmt, make/new, panic,
// append to unsized locals, and boxing at call boundaries.
func checkAllocCall(pkg *Package, fd *ast.FuncDecl, call *ast.CallExpr, report reporter) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch fun.Name {
		case "make":
			if isBuiltin(pkg, fun) {
				report(call.Pos(), "make allocates; hoist the allocation out of the hot path or recycle")
				return
			}
		case "new":
			if isBuiltin(pkg, fun) {
				report(call.Pos(), "new allocates; recycle through a free list instead")
				return
			}
		case "panic":
			if isBuiltin(pkg, fun) {
				report(call.Pos(), "panic boxes its operand; raise a structured error on the cold path instead")
				return
			}
		case "append":
			if isBuiltin(pkg, fun) && len(call.Args) > 0 {
				if dst, ok := call.Args[0].(*ast.Ident); ok && unsizedLocalSlice(pkg, fd, dst) {
					report(call.Pos(), "append grows local slice %q declared without capacity; recycle a buffer or hoist a pre-sized one", dst.Name)
				}
				return
			}
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok && isPackage(pkg, id, "fmt") {
			report(call.Pos(), "fmt.%s formats through interfaces and allocates; keep formatting off the hot path", fun.Sel.Name)
			return
		}
	}
	// Conversion to an interface type: Iface(x) boxes x.
	if pkg.Info != nil {
		if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
			if boxes(tv.Type, pkg.TypeOf(call.Args[0])) {
				report(call.Pos(), "conversion boxes a concrete value into interface %s and may allocate", tv.Type.String())
			}
			return
		}
	}
	// Boxing at the call boundary: a concrete argument bound to an
	// interface parameter.
	sig, ok := typeAsSignature(pkg.TypeOf(call.Fun))
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pt := paramTypeAt(sig, i, call.Ellipsis != token.NoPos)
		if boxes(pt, pkg.TypeOf(arg)) {
			report(arg.Pos(), "argument boxes a concrete value into interface %s and may allocate", pt.String())
		}
	}
}

// paramTypeAt returns the parameter type argument i binds to,
// unwrapping variadics (a spread `s...` passes the slice verbatim).
func paramTypeAt(sig *types.Signature, i int, ellipsis bool) types.Type {
	params := sig.Params()
	n := params.Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		last := params.At(n - 1).Type()
		if ellipsis {
			return last
		}
		if s, ok := last.Underlying().(*types.Slice); ok {
			return s.Elem()
		}
		return nil
	}
	if i < n {
		return params.At(i).Type()
	}
	return nil
}

// checkAllocBoxing flags assignments storing a concrete value into an
// interface-typed destination.
func checkAllocBoxing(pkg *Package, asg *ast.AssignStmt, report reporter) {
	if len(asg.Lhs) != len(asg.Rhs) {
		return
	}
	for i := range asg.Lhs {
		dt := pkg.TypeOf(asg.Lhs[i])
		if boxes(dt, pkg.TypeOf(asg.Rhs[i])) {
			report(asg.Rhs[i].Pos(), "assignment boxes a concrete value into interface %s and may allocate", dt.String())
		}
	}
}

// boxes reports whether storing a value of type src into dst converts
// a concrete value to an interface.
func boxes(dst, src types.Type) bool {
	if dst == nil || src == nil {
		return false
	}
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return false
	}
	if _, ok := src.Underlying().(*types.Interface); ok {
		return false // interface-to-interface carries the existing box
	}
	if b, ok := src.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return true
}

func typeAsSignature(t types.Type) (*types.Signature, bool) {
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}

// capturedLocal returns the name of a local from the enclosing
// function that the literal captures ("" when it captures nothing).
// Package-level objects and the literal's own locals are free.
func capturedLocal(pkg *Package, fd *ast.FuncDecl, lit *ast.FuncLit) string {
	if pkg.Info == nil {
		return ""
	}
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		pos := obj.Pos()
		// Declared inside the enclosing function but outside the
		// literal: a capture.
		if pos >= fd.Pos() && pos < fd.End() && !(pos >= lit.Pos() && pos < lit.End()) {
			captured = obj.Name()
			return false
		}
		return true
	})
	return captured
}

// unsizedLocalSlice reports whether the identifier is a slice variable
// declared locally in fd without a make(..., cap) (so append must grow
// it through the allocator). Parameters, fields, package-level slices
// and explicitly pre-sized locals are legal append targets: the hot
// paths recycle their backing arrays.
func unsizedLocalSlice(pkg *Package, fd *ast.FuncDecl, id *ast.Ident) bool {
	obj, ok := pkg.ObjectOf(id).(*types.Var)
	if !ok || obj.IsField() {
		return false
	}
	if _, ok := obj.Type().Underlying().(*types.Slice); !ok {
		return false
	}
	pos := obj.Pos()
	if pos < fd.Pos() || pos >= fd.End() {
		return false // package-level or field
	}
	if isParam(fd, pos) {
		return false
	}
	rhs, found := declValue(pkg, fd, obj)
	if !found {
		// var s []T with no initializer: nil slice, unsized.
		return true
	}
	if rhs == nil {
		return true
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok {
		return false // s := recycled()/x.f/x[i]: trusted source
	}
	if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "make" && isBuiltin(pkg, fn) {
		// Only make([]T, 0, cap) leaves room to append into; a
		// two-argument make starts full, so the first append grows it.
		return len(call.Args) < 3
	}
	return false // result of a call: trusted source
}

// isParam reports whether the position falls inside fd's parameter or
// receiver lists.
func isParam(fd *ast.FuncDecl, pos token.Pos) bool {
	if fd.Recv != nil && pos >= fd.Recv.Pos() && pos < fd.Recv.End() {
		return true
	}
	if fd.Type.Params != nil && pos >= fd.Type.Params.Pos() && pos < fd.Type.Params.End() {
		return true
	}
	if fd.Type.Results != nil && pos >= fd.Type.Results.Pos() && pos < fd.Type.Results.End() {
		return true
	}
	return false
}

// declValue finds the initializer expression of a local variable
// (nil, false when no declaration is found; nil, true for a bare var).
func declValue(pkg *Package, fd *ast.FuncDecl, obj *types.Var) (ast.Expr, bool) {
	var rhs ast.Expr
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || pkg.Info.Defs[id] != obj {
					continue
				}
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				found = true
				return false
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if pkg.Info.Defs[name] != obj {
					continue
				}
				if i < len(n.Values) {
					rhs = n.Values[i]
				}
				found = true
				return false
			}
		}
		return true
	})
	return rhs, found
}

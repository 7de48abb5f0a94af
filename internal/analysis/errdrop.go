package analysis

import (
	"go/ast"
	"go/types"
	"slices"
)

// ErrDrop guards the page-table operation contracts: Map, Unmap,
// ProtectRange, MapSuperpage and MapPartial report real, recoverable
// conditions (ErrAlreadyMapped, ErrMisaligned, ErrUnsupported) through
// their error result, and the differential oracle depends on callers
// seeing them. The analyzer flags a call whose final error result is
// discarded — used as a bare statement, assigned to the blank
// identifier, or launched via go/defer — when the callee is
//
//  1. a method of the Config.ErrInterface page-table interface, called
//     either through the interface or on a concrete organization that
//     implements it; or
//  2. any function or method exported by one of Config.ErrPkgs (the
//     concurrent service layer's ops).
//
// Deliberate drops (e.g. conflict-tolerant op storms in the timing
// experiments) carry a //ptlint:allow errdrop annotation with a
// one-line justification.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "flags discarded error results from page-table interface methods and service-layer ops",
	Run:  runErrDrop,
}

// pageTableMethods are the interface operations whose errors carry
// semantic outcomes callers must observe.
var pageTableMethods = map[string]bool{
	"Map":          true,
	"Unmap":        true,
	"ProtectRange": true,
	"MapSuperpage": true,
	"MapPartial":   true,
	"MapRange":     true,
}

func runErrDrop(pass *Pass) {
	var iface *types.Interface
	if obj, ok := pass.LookupQualified(pass.Config.ErrInterface).(*types.TypeName); ok {
		if i, ok := obj.Type().Underlying().(*types.Interface); ok {
			iface = i
		}
	}

	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDroppedCall(pass, iface, call, "result of %s is discarded")
				}
			case *ast.GoStmt:
				checkDroppedCall(pass, iface, n.Call, "result of %s is discarded by go statement")
			case *ast.DeferStmt:
				checkDroppedCall(pass, iface, n.Call, "result of %s is discarded by defer")
			case *ast.AssignStmt:
				checkBlankAssign(pass, iface, n)
			case *ast.GenDecl:
				checkBlankVarDecl(pass, iface, n)
			}
			return true
		})
	}
}

// checkBlankVarDecl flags `var _ = pt.Unmap(v)` declarations, the
// declaration-statement twin of the blank assignment.
func checkBlankVarDecl(pass *Pass, iface *types.Interface, gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		// Single call with multiple results: var ok, _ = f() style.
		if len(vs.Values) == 1 && len(vs.Names) > 1 {
			call, ok := vs.Values[0].(*ast.CallExpr)
			if !ok || vs.Names[len(vs.Names)-1].Name != "_" {
				continue
			}
			if n, ok := guardedErrCall(pass, iface, call); ok {
				pass.Reportf(call.Pos(), "error result of %s assigned to _: handle or annotate the deliberate drop", n)
			}
			continue
		}
		for i, name := range vs.Names {
			if name.Name != "_" || i >= len(vs.Values) {
				continue
			}
			call, ok := vs.Values[i].(*ast.CallExpr)
			if !ok {
				continue
			}
			if n, ok := guardedErrCall(pass, iface, call); ok {
				pass.Reportf(call.Pos(), "error result of %s assigned to _: handle or annotate the deliberate drop", n)
			}
		}
	}
}

// checkDroppedCall flags a statement-position call that throws away a
// guarded error result.
func checkDroppedCall(pass *Pass, iface *types.Interface, call *ast.CallExpr, format string) {
	name, ok := guardedErrCall(pass, iface, call)
	if !ok {
		return
	}
	pass.Reportf(call.Pos(), format+": its error reports unmapped/conflicting/misaligned pages the caller must handle", name)
}

// checkBlankAssign flags assignments that bind a guarded call's error
// result to the blank identifier, e.g. `_ = pt.Unmap(v)` or
// `_, _ = pt.ProtectRange(...)`.
func checkBlankAssign(pass *Pass, iface *types.Interface, as *ast.AssignStmt) {
	// Single call with multiple results: ok, _ := f() style.
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		if !isBlank(as.Lhs[len(as.Lhs)-1]) {
			return // error result (last) is bound
		}
		if name, ok := guardedErrCall(pass, iface, call); ok {
			pass.Reportf(call.Pos(), "error result of %s assigned to _: handle or annotate the deliberate drop", name)
		}
		return
	}
	for i, rhs := range as.Rhs {
		if i >= len(as.Lhs) || !isBlank(as.Lhs[i]) {
			continue
		}
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			continue
		}
		if name, ok := guardedErrCall(pass, iface, call); ok {
			pass.Reportf(call.Pos(), "error result of %s assigned to _: handle or annotate the deliberate drop", name)
		}
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// guardedErrCall reports whether call's final result is an error whose
// discarding the analyzer guards, and returns a display name.
func guardedErrCall(pass *Pass, iface *types.Interface, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !lastResultIsError(sig) {
		return "", false
	}

	// Case 2: anything from the configured service packages.
	if fn.Pkg() != nil && slices.Contains(pass.Config.ErrPkgs, fn.Pkg().Path()) {
		return displayName(fn), true
	}

	// Case 1: page-table interface methods, by interface or implementation.
	if iface == nil || sig.Recv() == nil || !pageTableMethods[fn.Name()] {
		return "", false
	}
	recv := sig.Recv().Type()
	if types.Implements(recv, iface) {
		return displayName(fn), true
	}
	if p, ok := recv.Underlying().(*types.Pointer); ok {
		recv = p.Elem()
	}
	if types.Implements(types.NewPointer(recv), iface) {
		return displayName(fn), true
	}
	return "", false
}

func lastResultIsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	t, ok := res.At(res.Len() - 1).Type().(*types.Named)
	return ok && t.Obj().Pkg() == nil && t.Obj().Name() == "error"
}

func displayName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return typeString(sig.Recv().Type()) + "." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// HandleLife guards the arena quiescence contract (DESIGN.md §12):
// Config.HandleTypes values are generation-tagged tickets into slab
// arenas, and every outstanding handle is invalidated in O(1) when its
// arena's Reset (or a pooled recycle path from Config.RecycleFuncs)
// bumps the epoch. A handle that survives a recycle point is a stale
// ticket — Get panics on it at best, or aliases a recycled slot.
//
// The analyzer flags, per function:
//
//  1. a use of a handle-typed value after a statement that calls a
//     recycler — directly, or through up to two call levels (the
//     interprocedural summary marks any module function that reaches
//     Arena.Reset or a configured recycle func) — unless the handle is
//     redefined in between, the use is an IsZero check, or the handle
//     demonstrably comes from a different arena variable than the one
//     reset;
//  2. a package-level variable of a handle type: a global handle
//     cannot be proven to die before any Reset.
//
// Handles and arenas are matched by canonical expression text, so
// aliased handles need an //ptlint:allow handlelife annotation.
var HandleLife = &Analyzer{
	Name: "handlelife",
	Doc:  "flags arena handles that can outlive an Arena.Reset or pool recycle on an interprocedural path",
	Run:  runHandleLife,
}

func runHandleLife(pass *Pass) {
	handleTypes := resolveHandleTypes(pass)
	if len(handleTypes) == 0 {
		return
	}
	rec := recyclerSummaries(pass.Module, pass.Config)
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				if d.Tok == token.VAR {
					checkGlobalHandles(pass, d, handleTypes)
				}
			case *ast.FuncDecl:
				if d.Body != nil {
					checkHandleFlow(pass, d, handleTypes, rec)
				}
			}
		}
	}
}

// resolveHandleTypes resolves Config.HandleTypes to types.Type values
// reachable from this pass.
func resolveHandleTypes(pass *Pass) []types.Type {
	var out []types.Type
	for _, q := range pass.Config.HandleTypes {
		if tn, ok := pass.LookupQualified(q).(*types.TypeName); ok {
			out = append(out, tn.Type())
		}
	}
	return out
}

func isHandleType(t types.Type, handleTypes []types.Type) bool {
	if t == nil {
		return false
	}
	for _, ht := range handleTypes {
		if types.Identical(t, ht) {
			return true
		}
	}
	return false
}

// recyclerSummaries marks every module function that can invalidate
// outstanding handles, with a short reason chain. Level 0 is an
// AllocPkg Reset method or a configured recycle func; level N directly
// calls a level N-1 recycler. The chain is capped at two call levels —
// deeper resets are rare and the cap keeps the summary's false-positive
// radius small.
func recyclerSummaries(mod *Module, cfg Config) map[*types.Func]string {
	key := "handlelife-recyclers/" + cfg.AllocPkg + "/" + strings.Join(cfg.RecycleFuncs, ",")
	return mod.memo(key, func() any {
		fi := moduleFuncs(mod)
		rec := map[*types.Func]string{}
		for fn := range fi.decls {
			if fn.Name() == "Reset" && fn.Pkg() != nil && fn.Pkg().Path() == cfg.AllocPkg {
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					rec[fn] = recvTypeName(sig.Recv().Type()) + ".Reset"
				}
			}
			if q := qualifiedFuncName(fn); q != "" && slices.Contains(cfg.RecycleFuncs, q) {
				rec[fn] = shortQualified(q)
			}
		}
		// Interface methods named in RecycleFuncs (pagetable.Resetter.Reset)
		// have no body in the index; match them at call sites by
		// qualified name instead, via the closure below.
		for level := 0; level < 2; level++ {
			next := map[*types.Func]string{}
			for fn, fd := range fi.decls {
				if _, done := rec[fn]; done || fd.Body == nil {
					continue
				}
				pkg := fi.pkgOf[fn]
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if _, ok := n.(*ast.FuncLit); ok {
						return false
					}
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if _, found := next[fn]; found {
						return false
					}
					callee := calleeOf(pkg, call)
					if callee == nil {
						return true
					}
					if why, ok := rec[callee]; ok {
						next[fn] = fn.Name() + " -> " + why
					} else if q := qualifiedFuncName(callee); q != "" && slices.Contains(cfg.RecycleFuncs, q) {
						next[fn] = fn.Name() + " -> " + callee.Name()
					}
					return true
				})
			}
			for fn, why := range next {
				rec[fn] = why
			}
		}
		return rec
	}).(map[*types.Func]string)
}

// checkGlobalHandles flags package-level variables of a handle type.
func checkGlobalHandles(pass *Pass, gd *ast.GenDecl, handleTypes []types.Type) {
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, name := range vs.Names {
			obj := pass.Pkg.Info.Defs[name]
			if obj == nil || obj.Parent() != pass.Pkg.Types.Scope() {
				continue
			}
			if isHandleType(obj.Type(), handleTypes) {
				pass.Reportf(name.Pos(), "package-level handle %s: a global handle outlives every arena Reset; keep handles scoped to the arena's epoch", name.Name)
			}
		}
	}
}

// hlRecycle is one statement-position recycle call.
type hlRecycle struct {
	pos   token.Pos
	why   string
	arena string // canonical receiver text for direct AllocPkg resets, else ""
	line  int
}

// hlDef is one binding of a handle-typed variable.
type hlDef struct {
	pos   token.Pos
	arena string // canonical receiver the handle was allocated from, else ""
}

// checkHandleFlow runs the positional stale-handle check over one
// function body. Function literals are analyzed as their own scopes:
// positional ordering across a closure boundary is meaningless.
func checkHandleFlow(pass *Pass, fd *ast.FuncDecl, handleTypes []types.Type, rec map[*types.Func]string) {
	var bodies []*ast.BlockStmt
	bodies = append(bodies, fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			bodies = append(bodies, lit.Body)
		}
		return true
	})
	for i, body := range bodies {
		var params []*ast.Field
		if i == 0 && fd.Type.Params != nil {
			params = fd.Type.Params.List
		}
		checkHandleBody(pass, body, params, handleTypes, rec)
	}
}

func checkHandleBody(pass *Pass, body *ast.BlockStmt, params []*ast.Field, handleTypes []types.Type, rec map[*types.Func]string) {
	defs := map[string][]hlDef{}
	var recycles []hlRecycle
	uses := []struct {
		text string
		pos  token.Pos
	}{}

	// Handle-typed parameters are definitions at body start: a handle
	// passed in was created before any recycle inside this function.
	for _, field := range params {
		for _, name := range field.Names {
			if obj := pass.Pkg.Info.Defs[name]; obj != nil && isHandleType(obj.Type(), handleTypes) {
				defs[name.Name] = append(defs[name.Name], hlDef{pos: body.Pos()})
			}
		}
	}

	skipUse := map[ast.Expr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // every literal body gets its own pass
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				text := canonExpr(lhs)
				if text == "" || text == "_" {
					continue
				}
				var t types.Type
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := pass.ObjectOf(id); obj != nil {
						t = obj.Type()
					}
				} else {
					t = pass.TypeOf(lhs)
				}
				if !isHandleType(t, handleTypes) {
					continue
				}
				arena := ""
				if len(n.Rhs) == len(n.Lhs) {
					arena = allocSource(pass, n.Rhs[i])
				} else if len(n.Rhs) == 1 {
					arena = allocSource(pass, n.Rhs[0])
				}
				defs[text] = append(defs[text], hlDef{pos: lhs.Pos(), arena: arena})
				skipUse[lhs] = true
			}
		case *ast.CallExpr:
			callee := calleeOf(pass.Pkg, n)
			if callee == nil {
				return true
			}
			why, isRec := rec[callee]
			if !isRec {
				if q := qualifiedFuncName(callee); q != "" && slices.Contains(pass.Config.RecycleFuncs, q) {
					isRec, why = true, callee.Name()
				}
			}
			if isRec {
				arena := ""
				if callee.Pkg() != nil && callee.Pkg().Path() == pass.Config.AllocPkg {
					if recv := callReceiver(n); recv != nil {
						arena = canonExpr(recv)
					}
				}
				recycles = append(recycles, hlRecycle{
					pos:   n.Pos(),
					why:   why,
					arena: arena,
					line:  pass.Fset.Position(n.Pos()).Line,
				})
			}
			// h.IsZero() is a validity probe, not a deref; exempt its
			// receiver.
			if callee.Name() == "IsZero" {
				if recv := callReceiver(n); recv != nil {
					skipUse[recv] = true
				}
			}
		case *ast.Ident, *ast.SelectorExpr:
			e := n.(ast.Expr)
			if skipUse[e] {
				return true
			}
			if !isHandleType(pass.TypeOf(e), handleTypes) {
				return true
			}
			text := canonExpr(e)
			if text == "" || text == "_" {
				return true
			}
			uses = append(uses, struct {
				text string
				pos  token.Pos
			}{text, e.Pos()})
			return false // don't re-record sel.X fragments
		}
		return true
	})

	if len(recycles) == 0 {
		return
	}
	reported := map[token.Pos]bool{}
	for _, u := range uses {
		// Latest definition before the use; an untracked name (a field
		// read, a captured variable) is treated as defined at body
		// start — it certainly predates any recycle in this body.
		def := hlDef{pos: body.Pos()}
		for _, d := range defs[u.text] {
			if d.pos <= u.pos && d.pos >= def.pos {
				def = d
			}
		}
		for _, r := range recycles {
			if r.pos <= def.pos || r.pos >= u.pos || reported[u.pos] {
				continue
			}
			// Redefined after the recycle: the stale ticket was replaced.
			redefined := false
			for _, d := range defs[u.text] {
				if d.pos > r.pos && d.pos < u.pos {
					redefined = true
					break
				}
			}
			if redefined {
				continue
			}
			// Provably a different arena than the one reset.
			if r.arena != "" && def.arena != "" && r.arena != def.arena {
				continue
			}
			reported[u.pos] = true
			pass.Reportf(u.pos, "handle %s may be stale: %s at line %d invalidates outstanding handles, and %s was created before it; re-acquire the handle after the reset",
				u.text, r.why, r.line, u.text)
		}
	}
}

// allocSource returns the canonical receiver text when e is a direct
// allocation call on an AllocPkg-typed receiver (a.Alloc(), b.Insert()
// style), else "".
func allocSource(pass *Pass, e ast.Expr) string {
	call, ok := stripParens(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	fn := calleeOf(pass.Pkg, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pass.Config.AllocPkg {
		return ""
	}
	if recv := callReceiver(call); recv != nil {
		return canonExpr(recv)
	}
	return ""
}

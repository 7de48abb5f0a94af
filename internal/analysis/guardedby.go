package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GuardedBy enforces //ptlint:guardedby field annotations (DESIGN.md
// §12). A struct field annotated
//
//	table pagetable.PageTable //ptlint:guardedby stripes[*].mu
//
// may only be read or written while the named lock — a path relative to
// the annotated struct, with [*] standing for any index of a striped
// lock array — is held. The analyzer tracks the lock-held set through
// each function body:
//
//   - mu.Lock()/RLock() add the canonical lock path, Unlock()/RUnlock()
//     remove it; a deferred unlock holds to the end of the function;
//   - locks obtained through a lock-returning helper (the striped
//     s.stripeFor(vpn) pattern, recognized as a method whose every
//     return is &recv.path.mu) bind through local variables;
//   - loop bodies propagate their lock effects outward only when the
//     body cannot escape early (no return/break/continue/goto), so
//     lock-all-stripes loops count while unlock-then-return probe loops
//     do not;
//   - one-level-indirect coverage: a function whose every call site in
//     its package holds lock L (translated into the callee's receiver
//     frame) is analyzed with L assumed held on entry. Calls launched
//     via go run with nothing held.
//
// Receiver and lock paths are matched canonically and textually, so
// aliasing a guarded struct through a second variable needs an
// //ptlint:allow guardedby annotation with a justification.
var GuardedBy = &Analyzer{
	Name: "guardedby",
	Doc:  "flags reads/writes of //ptlint:guardedby-annotated fields outside their declared lock",
	Run:  runGuardedBy,
}

const guardPrefix = "ptlint:guardedby"

// guardSpec is one annotated field.
type guardSpec struct {
	owner string // declaring struct type name, for messages
	field string // field name
	path  string // lock path relative to the struct, e.g. "mu" or "stripes[*].mu"
	bad   string // non-empty when the annotation failed validation
	pos   token.Pos
}

// gbAccess is one read or write of an annotated field.
type gbAccess struct {
	spec *guardSpec
	need string // canonical lock token required at this point
	held map[string]int
	fn   *types.Func // enclosing declared function, nil in func literals
	pos  token.Pos
}

// gbCall is one call site of a module function, with the lock set held
// when it executes.
type gbCall struct {
	callee   *types.Func
	recvText string // canonical receiver text at the call site, "" for plain calls
	held     map[string]int
	caller   *types.Func
}

// gbFacts is the module-wide annotation table plus lock-returning
// helper summaries.
type gbFacts struct {
	guards      map[*types.Var]*guardSpec
	lockReturns map[*types.Func]string // helper -> lock path relative to its receiver
	badSpecs    map[*Package][]*guardSpec
}

func runGuardedBy(pass *Pass) {
	facts := guardFacts(pass.Module)
	for _, spec := range facts.badSpecs[pass.Pkg] {
		pass.Reportf(spec.pos, "invalid //ptlint:guardedby annotation on %s.%s: %s", spec.owner, spec.field, spec.bad)
	}
	if len(facts.guards) == 0 {
		return
	}

	var accesses []gbAccess
	calls := map[*types.Func][]gbCall{}
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			w := &gbWalker{
				pass:     pass,
				facts:    facts,
				fn:       fn,
				locals:   map[types.Object]string{},
				accesses: &accesses,
				calls:    calls,
			}
			w.block(fd.Body.List, map[string]int{})
		}
	}

	// One-level-indirect entry assumptions: a function all of whose
	// package-local call sites hold lock L (translated into the callee's
	// receiver name) is granted L on entry. Two rounds so an assumption
	// earned in round one extends one further call level.
	fi := moduleFuncs(pass.Module)
	assume := map[*types.Func]map[string]bool{}
	for round := 0; round < 2; round++ {
		next := map[*types.Func]map[string]bool{}
		for callee, sites := range calls {
			fd := fi.decls[callee]
			if fd == nil || fi.pkgOf[callee] != pass.Pkg {
				continue
			}
			recvName := declRecvName(fd)
			var inter map[string]bool
			for _, site := range sites {
				toks := map[string]bool{}
				add := func(tok string) {
					if site.recvText != "" && recvName != "" && strings.HasPrefix(tok, site.recvText+".") {
						toks[recvName+strings.TrimPrefix(tok, site.recvText)] = true
					}
				}
				for tok, n := range site.held {
					if n > 0 {
						add(tok)
					}
				}
				if site.caller != nil {
					for tok := range assume[site.caller] {
						add(tok)
					}
				}
				if inter == nil {
					inter = toks
				} else {
					for tok := range inter {
						if !toks[tok] {
							delete(inter, tok)
						}
					}
				}
			}
			if len(inter) > 0 {
				next[callee] = inter
			}
		}
		assume = next
	}

	for _, a := range accesses {
		if a.held[a.need] > 0 || assume[a.fn][a.need] {
			continue
		}
		pass.Reportf(a.pos, "%s.%s accessed without holding %s (annotated //ptlint:guardedby %s): acquire the lock, or annotate the exception with its safety argument",
			a.spec.owner, a.spec.field, a.need, a.spec.path)
	}
}

// guardFacts collects every //ptlint:guardedby annotation and every
// lock-returning helper in the module, once.
func guardFacts(mod *Module) *gbFacts {
	return mod.memo("guardedby", func() any {
		facts := &gbFacts{
			guards:      map[*types.Var]*guardSpec{},
			lockReturns: map[*types.Func]string{},
			badSpecs:    map[*Package][]*guardSpec{},
		}
		for _, pkg := range mod.Packages {
			for _, f := range pkg.Files {
				for _, d := range f.Decls {
					switch d := d.(type) {
					case *ast.GenDecl:
						collectGuardSpecs(pkg, d, facts)
					case *ast.FuncDecl:
						collectLockReturn(pkg, d, facts)
					}
				}
			}
		}
		return facts
	}).(*gbFacts)
}

// collectGuardSpecs scans one type declaration's struct fields for
// guardedby annotations and validates the lock paths.
func collectGuardSpecs(pkg *Package, gd *ast.GenDecl, facts *gbFacts) {
	for _, spec := range gd.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, field := range st.Fields.List {
			path, ok := guardAnnotation(field)
			if !ok {
				continue
			}
			for _, name := range field.Names {
				v, ok := pkg.Info.Defs[name].(*types.Var)
				if !ok {
					continue
				}
				gs := &guardSpec{owner: ts.Name.Name, field: name.Name, path: path, pos: field.Pos()}
				if err := validateGuardPath(pkg, ts, path); err != "" {
					gs.bad = err
					facts.badSpecs[pkg] = append(facts.badSpecs[pkg], gs)
					continue
				}
				facts.guards[v] = gs
			}
		}
	}
}

// guardAnnotation extracts the lock path from a field's doc or line
// comment.
func guardAnnotation(field *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimLeft(c.Text, "/"))
			rest, ok := strings.CutPrefix(text, guardPrefix)
			if !ok {
				continue
			}
			path := strings.TrimSpace(rest)
			if i := strings.IndexAny(path, " \t"); i >= 0 {
				path = path[:i]
			}
			return path, path != ""
		}
	}
	return "", false
}

// validateGuardPath walks the annotated path from the declaring struct
// type and checks it lands on a sync.Mutex or sync.RWMutex. Returns ""
// when valid, an explanation otherwise.
func validateGuardPath(pkg *Package, ts *ast.TypeSpec, path string) string {
	obj, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
	if !ok {
		return "declaring type not resolved"
	}
	t := obj.Type()
	for _, seg := range strings.Split(path, ".") {
		indexed := false
		if s, ok := strings.CutSuffix(seg, "[*]"); ok {
			seg, indexed = s, true
		}
		if seg == "" {
			return "empty path segment"
		}
		st, ok := derefType(t).Underlying().(*types.Struct)
		if !ok {
			return "segment " + seg + " selects into non-struct " + t.String()
		}
		var next types.Type
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == seg {
				next = st.Field(i).Type()
				break
			}
		}
		if next == nil {
			return "no field " + seg + " in " + t.String()
		}
		t = next
		if indexed {
			switch u := derefType(t).Underlying().(type) {
			case *types.Slice:
				t = u.Elem()
			case *types.Array:
				t = u.Elem()
			default:
				return "segment " + seg + "[*] indexes non-slice/array " + t.String()
			}
		}
	}
	if !isSyncMutex(t) {
		return "path resolves to " + t.String() + ", not a sync.Mutex or sync.RWMutex"
	}
	return ""
}

func derefType(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func isSyncMutex(t types.Type) bool {
	n, ok := derefType(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return false
	}
	return n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex"
}

// collectLockReturn records fd as a lock-returning helper when it is a
// method whose every return statement yields &recv.<path> for one fixed
// mutex path (the service layer's stripeFor pattern).
func collectLockReturn(pkg *Package, fd *ast.FuncDecl, facts *gbFacts) {
	fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok || fd.Body == nil {
		return
	}
	recvName := declRecvName(fd)
	if recvName == "" {
		return
	}
	sig := fn.Type().(*types.Signature)
	if sig.Results().Len() != 1 {
		return
	}
	rp, ok := sig.Results().At(0).Type().(*types.Pointer)
	if !ok || !isSyncMutex(rp.Elem()) {
		return
	}
	path := ""
	ok = true
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if !ok {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		ret, isRet := n.(*ast.ReturnStmt)
		if !isRet {
			return true
		}
		if len(ret.Results) != 1 {
			ok = false
			return false
		}
		tok := canonExpr(ret.Results[0])
		if !strings.HasPrefix(tok, recvName+".") {
			ok = false
			return false
		}
		tok = strings.TrimPrefix(tok, recvName+".")
		if path == "" {
			path = tok
		} else if path != tok {
			ok = false
		}
		return true
	})
	if ok && path != "" {
		facts.lockReturns[fn] = path
	}
}

// declRecvName returns the receiver identifier name of a method
// declaration, or "".
func declRecvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// gbWalker performs the sequential lock-set walk over one function.
type gbWalker struct {
	pass     *Pass
	facts    *gbFacts
	fn       *types.Func
	locals   map[types.Object]string // local var -> bound lock token
	accesses *[]gbAccess
	calls    map[*types.Func][]gbCall
}

func copyHeld(held map[string]int) map[string]int {
	c := make(map[string]int, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

// block walks statements in order, mutating held.
func (w *gbWalker) block(stmts []ast.Stmt, held map[string]int) {
	for _, s := range stmts {
		w.stmt(s, held)
	}
}

func (w *gbWalker) stmt(s ast.Stmt, held map[string]int) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.block(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.expr(s.Cond, held)
		// Branch bodies run on a copy: a lock taken on one arm is not
		// held after the if.
		w.block(s.Body.List, copyHeld(held))
		if s.Else != nil {
			w.stmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.expr(s.Cond, held)
		}
		body := copyHeld(held)
		w.block(s.Body.List, body)
		if s.Post != nil {
			w.stmt(s.Post, body)
		}
		w.mergeLoop(s.Body, held, body)
	case *ast.RangeStmt:
		w.expr(s.X, held)
		body := copyHeld(held)
		w.block(s.Body.List, body)
		w.mergeLoop(s.Body, held, body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.expr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.expr(e, held)
				}
				w.block(cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.stmt(s.Assign, held)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.block(cc.Body, copyHeld(held))
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				arm := copyHeld(held)
				if cc.Comm != nil {
					w.stmt(cc.Comm, arm)
				}
				w.block(cc.Body, arm)
			}
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	case *ast.DeferStmt:
		// A deferred unlock releases at function exit, not here: the
		// lock stays held for the rest of the body. Other deferred
		// calls run after explicit unlocks may have executed, so they
		// are recorded with nothing held.
		if tok, method := w.lockCallToken(s.Call); tok != "" && (method == "Unlock" || method == "RUnlock") {
			return
		}
		w.exprs(s.Call.Args, held)
		if lit, ok := stripParens(s.Call.Fun).(*ast.FuncLit); ok {
			// A deferred closure usually runs before the deferred
			// unlocks registered above it; analyze it with the
			// lexically held set.
			w.funcLit(lit, copyHeld(held))
			return
		}
		w.recordCall(s.Call, map[string]int{})
	case *ast.GoStmt:
		// The goroutine runs concurrently: its call executes with no
		// caller-held locks.
		w.exprs(s.Call.Args, held)
		w.recordCall(s.Call, map[string]int{})
		if lit, ok := stripParens(s.Call.Fun).(*ast.FuncLit); ok {
			w.funcLit(lit, map[string]int{})
		}
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.expr(r, held)
		}
		if len(s.Lhs) == len(s.Rhs) {
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				if tok := w.lockExprToken(s.Rhs[i]); tok != "" {
					if obj := w.pass.ObjectOf(id); obj != nil {
						w.locals[obj] = tok
					}
				}
			}
		}
		for _, l := range s.Lhs {
			w.expr(l, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				w.exprs(vs.Values, held)
				if len(vs.Names) == len(vs.Values) {
					for i, name := range vs.Names {
						if tok := w.lockExprToken(vs.Values[i]); tok != "" {
							if obj := w.pass.Pkg.Info.Defs[name]; obj != nil {
								w.locals[obj] = tok
							}
						}
					}
				}
			}
		}
	case *ast.ExprStmt:
		w.expr(s.X, held)
	case *ast.ReturnStmt:
		w.exprs(s.Results, held)
	case *ast.IncDecStmt:
		w.expr(s.X, held)
	case *ast.SendStmt:
		w.expr(s.Chan, held)
		w.expr(s.Value, held)
	}
}

// mergeLoop propagates a loop body's lock effects to the code after the
// loop, but only when the body cannot escape early: a body containing
// return/break/continue/goto may leave the locks in either state, so
// its effects are discarded (service.Reset's lock-all-stripes loop
// propagates; a probe loop that unlocks and returns on a hit does not).
func (w *gbWalker) mergeLoop(body *ast.BlockStmt, held, after map[string]int) {
	if loopHasExits(body) {
		return
	}
	for k := range held {
		delete(held, k)
	}
	for k, v := range after {
		held[k] = v
	}
}

// loopHasExits reports whether a loop body contains any statement that
// can leave the loop early. Nested function literals don't count.
func loopHasExits(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt, *ast.BranchStmt:
			found = true
		}
		return !found
	})
	return found
}

func (w *gbWalker) exprs(list []ast.Expr, held map[string]int) {
	for _, e := range list {
		w.expr(e, held)
	}
}

// expr scans an expression for lock transitions, guarded-field
// accesses, call sites, and function literals.
func (w *gbWalker) expr(e ast.Expr, held map[string]int) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.funcLit(n, copyHeld(held))
			return false
		case *ast.CallExpr:
			if tok, method := w.lockCallToken(n); tok != "" {
				switch method {
				case "Lock", "RLock":
					held[tok]++
				case "Unlock", "RUnlock":
					if held[tok] > 0 {
						held[tok]--
					}
				}
				return false
			}
			w.recordCall(n, held)
			return true
		case *ast.SelectorExpr:
			w.checkAccess(n, held)
			return true
		}
		return true
	})
}

// funcLit analyzes a function literal's body with the lexically held
// lock set (a closure invoked synchronously under the caller's locks;
// go-launched literals are walked with an empty set by the GoStmt case).
func (w *gbWalker) funcLit(lit *ast.FuncLit, held map[string]int) {
	inner := &gbWalker{
		pass:     w.pass,
		facts:    w.facts,
		fn:       w.fn,
		locals:   w.locals,
		accesses: w.accesses,
		calls:    w.calls,
	}
	inner.block(lit.Body.List, held)
}

// checkAccess records sel when it selects an annotated field.
func (w *gbWalker) checkAccess(sel *ast.SelectorExpr, held map[string]int) {
	obj := w.pass.ObjectOf(sel.Sel)
	v, ok := obj.(*types.Var)
	if !ok {
		return
	}
	spec := w.facts.guards[v]
	if spec == nil {
		return
	}
	base := canonExpr(sel.X)
	if base == "" {
		base = exprString(w.pass.Fset, sel.X)
	}
	*w.accesses = append(*w.accesses, gbAccess{
		spec: spec,
		need: base + "." + spec.path,
		held: copyHeld(held),
		fn:   w.fn,
		pos:  sel.Pos(),
	})
}

// recordCall registers a call site of a module-declared function with
// the current held set.
func (w *gbWalker) recordCall(call *ast.CallExpr, held map[string]int) {
	fn := calleeOf(w.pass.Pkg, call)
	if fn == nil {
		return
	}
	recvText := ""
	if recv := callReceiver(call); recv != nil {
		recvText = canonExpr(recv)
	}
	w.calls[fn] = append(w.calls[fn], gbCall{
		callee:   fn,
		recvText: recvText,
		held:     copyHeld(held),
		caller:   w.fn,
	})
}

// lockCallToken recognizes x.Lock/RLock/Unlock/RUnlock on a sync
// primitive and returns the canonical lock token plus the method name.
func (w *gbWalker) lockCallToken(call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	fn, ok := w.pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	if tok := w.lockExprToken(sel.X); tok != "" {
		return tok, sel.Sel.Name
	}
	return "", ""
}

// lockExprToken canonicalizes an expression that denotes a mutex (or a
// pointer to one): a direct path, a local variable bound to a lock, or
// a call to a lock-returning helper.
func (w *gbWalker) lockExprToken(e ast.Expr) string {
	e = stripParens(e)
	if id, ok := e.(*ast.Ident); ok {
		if obj := w.pass.ObjectOf(id); obj != nil {
			if tok, ok := w.locals[obj]; ok {
				return tok
			}
		}
	}
	if call, ok := e.(*ast.CallExpr); ok {
		fn := calleeOf(w.pass.Pkg, call)
		if fn == nil {
			return ""
		}
		path, ok := w.facts.lockReturns[fn]
		if !ok {
			return ""
		}
		if recv := callReceiver(call); recv != nil {
			if base := canonExpr(recv); base != "" {
				return base + "." + path
			}
		}
		return ""
	}
	if t := w.pass.TypeOf(e); t != nil && isSyncMutex(t) {
		return canonExpr(e)
	}
	return ""
}

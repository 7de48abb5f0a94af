package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// DetFlow guards the engine's byte-identity invariant (DESIGN.md §12):
// rendered output must be identical at any -workers count. It traces a
// value derived from a nondeterminism source — a wall-clock read
// (time.Now/Since/Until), a math/rand package-level function drawing
// from the process-global source, or a collection or merge made in map
// iteration or channel delivery order — through assignments, reads and
// module-internal calls, and reports only when such a value reaches a
// rendering or merge entry point (Config.SinkFuncs). A nondeterministic
// value two call frames away from report.Render is caught even though
// every individual frame looks innocent, and timing code whose values
// never reach a sink needs no annotation.
//
// Inside a map or chan range, appends to an outer slice (unless the
// collect-and-sort idiom restores a canonical order), float op-assigns
// into an outer variable and merge-shaped method calls (Add, Merge,
// Combine, Accumulate, Reduce) on an outer plain-identifier receiver
// taint their target; a sink called inside a map range with the loop
// variables as arguments is a finding by itself, since it emits in map
// order.
//
// Per-function summaries are computed module-wide in import order:
// whether a function returns a tainted value, and whether a parameter
// it receives is forwarded into a sink. Taint deliberately does not
// flow through composite literals or field writes — a timing field
// stored on a stats struct is the measured output of an experiment,
// not part of its rendered table — which keeps the engine's
// walltime bookkeeping clean while still catching direct flows.
var DetFlow = &Analyzer{
	Name: "detflow",
	Doc:  "flags nondeterministically-tainted values reaching render/merge sinks through up to two call levels",
	Run:  runDetFlow,
}

func runDetFlow(pass *Pass) {
	if len(pass.Config.SinkFuncs) == 0 {
		return
	}
	res := detflowResults(pass.Module, pass.Config)
	for _, f := range res.findings[pass.Pkg] {
		pass.Reportf(f.pos, "%s", f.msg)
	}
}

// dfSummary is one function's interprocedural taint behavior.
type dfSummary struct {
	returnsTaint string         // source reason, "" when untainted
	paramSinks   map[int]string // param index -> sink chain it reaches
}

type dfFinding struct {
	pos token.Pos
	msg string
}

type dfResult struct {
	summaries map[*types.Func]*dfSummary
	findings  map[*Package][]dfFinding
}

// detflowResults computes summaries and findings for the whole module,
// once. Packages are visited in import order so callee summaries exist
// before their callers; within a package two rounds cover
// declaration-order-independent and one-level-recursive flows.
func detflowResults(mod *Module, cfg Config) *dfResult {
	key := "detflow/" + strings.Join(cfg.SinkFuncs, ",")
	return mod.memo(key, func() any {
		res := &dfResult{
			summaries: map[*types.Func]*dfSummary{},
			findings:  map[*Package][]dfFinding{},
		}
		sinks := map[string]bool{}
		for _, s := range cfg.SinkFuncs {
			sinks[s] = true
		}
		for _, pkg := range mod.Packages {
			// Two summary rounds, then a findings round.
			for round := 0; round < 3; round++ {
				collect := round == 2
				for _, f := range pkg.Files {
					for _, d := range f.Decls {
						fd, ok := d.(*ast.FuncDecl)
						if !ok || fd.Body == nil {
							continue
						}
						fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
						if fn == nil {
							continue
						}
						df := &dfFunc{
							pkg:     pkg,
							res:     res,
							sinks:   sinks,
							tainted: map[types.Object]string{},
							summary: &dfSummary{paramSinks: map[int]string{}},
						}
						df.seedParams(fd)
						df.analyze(fd.Body, collect)
						if !collect {
							res.summaries[fn] = df.summary
						} else if len(df.found) > 0 {
							res.findings[pkg] = append(res.findings[pkg], df.found...)
						}
					}
				}
			}
		}
		return res
	}).(*dfResult)
}

// dfFunc is the per-function taint state.
type dfFunc struct {
	pkg     *Package
	res     *dfResult
	sinks   map[string]bool
	tainted map[types.Object]string
	params  []types.Object
	summary *dfSummary
	found   []dfFinding
}

const dfParamPrefix = "param:"

func isParamReason(r string) bool { return strings.HasPrefix(r, dfParamPrefix) }

// pickReason prefers a real source reason over a parameter placeholder.
func pickReason(a, b string) string {
	if a == "" || (isParamReason(a) && b != "" && !isParamReason(b)) {
		return b
	}
	return a
}

func (df *dfFunc) seedParams(fd *ast.FuncDecl) {
	if fd.Type.Params == nil {
		return
	}
	i := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := df.pkg.Info.Defs[name]
			df.params = append(df.params, obj)
			if obj != nil {
				df.tainted[obj] = dfParamPrefix + strconv.Itoa(i)
			}
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
}

// analyze runs two propagation rounds over the body (assignments may
// read variables assigned later in the source) and, when collect is
// set, a final round recording sink findings.
func (df *dfFunc) analyze(body *ast.BlockStmt, collect bool) {
	df.propagate(body)
	df.propagate(body)
	df.sinkScan(body, collect)
}

// propagate applies the taint transfer functions of assignments and
// range statements, in source order. Function literal bodies are walked
// inline: a closure shares its enclosing function's variables.
func (df *dfFunc) propagate(body *ast.BlockStmt) {
	sorted := dfSortedSlices(df.pkg, body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			df.assign(n)
		case *ast.RangeStmt:
			df.rangeTaint(n, sorted)
		}
		return true
	})
}

func (df *dfFunc) assign(as *ast.AssignStmt) {
	taintLhs := func(lhs ast.Expr, reason string) {
		if reason == "" {
			return
		}
		if id, ok := stripParens(lhs).(*ast.Ident); ok && id.Name != "_" {
			if obj := pkgObjectOf(df.pkg, id); obj != nil {
				df.tainted[obj] = pickReason(df.tainted[obj], reason)
			}
		}
		// Field and index writes deliberately do not taint the base.
	}
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		r := df.taintOf(as.Rhs[0])
		for _, lhs := range as.Lhs {
			taintLhs(lhs, r)
		}
		return
	}
	for i, rhs := range as.Rhs {
		if i < len(as.Lhs) {
			taintLhs(as.Lhs[i], df.taintOf(rhs))
		}
	}
}

// rangeTaint applies the range transfer rules. Loop variables of a
// tainted container become tainted. Inside a map or chan range, whose
// order Go randomizes or scheduling decides, three shapes taint a
// variable declared outside the range with the iteration-order reason:
// an append to it, unless the collect-and-sort idiom restores a
// canonical order; a float op-assign into it, since float addition is
// not associative; and a merge-shaped method call with it as the plain
// identifier receiver. Integer op-assigns commute and stay clean, and
// selector receivers (rc.done.Add(1)) are bookkeeping, not merges.
func (df *dfFunc) rangeTaint(rs *ast.RangeStmt, sorted map[types.Object]bool) {
	if r := df.taintOf(rs.X); r != "" {
		for _, v := range []ast.Expr{rs.Key, rs.Value} {
			if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
				if obj := pkgObjectOf(df.pkg, id); obj != nil {
					df.tainted[obj] = pickReason(df.tainted[obj], r)
				}
			}
		}
	}
	reason := dfRangeOrder(df.pkg, rs)
	if reason == "" {
		return
	}
	taintOuter := func(e ast.Expr, why string) {
		id, ok := stripParens(e).(*ast.Ident)
		if !ok {
			return
		}
		obj := pkgObjectOf(df.pkg, id)
		if obj == nil || obj.Pos() == token.NoPos ||
			(obj.Pos() >= rs.Pos() && obj.Pos() < rs.End()) {
			return // loop-local
		}
		df.tainted[obj] = pickReason(df.tainted[obj], why)
	}
	loopVars := dfLoopVars(df.pkg, rs)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				for _, lhs := range n.Lhs {
					if t := dfTypeOf(df.pkg, lhs); t != nil && isFloat(t) {
						taintOuter(lhs, "float accumulation in "+reason)
					}
				}
			}
			for i, rhs := range n.Rhs {
				call, ok := stripParens(rhs).(*ast.CallExpr)
				if !ok || len(call.Args) == 0 || i >= len(n.Lhs) {
					continue
				}
				fid, ok := call.Fun.(*ast.Ident)
				if !ok {
					continue
				}
				if b, ok := pkgObjectOf(df.pkg, fid).(*types.Builtin); !ok || b.Name() != "append" {
					continue
				}
				if tid, ok := call.Args[0].(*ast.Ident); ok &&
					!(sorted[pkgObjectOf(df.pkg, tid)] && dfAppendsOnlyLoopVars(df.pkg, call, loopVars)) {
					taintOuter(tid, reason)
				}
			}
		case *ast.CallExpr:
			if sel, ok := stripParens(n.Fun).(*ast.SelectorExpr); ok && mergeMethodName(sel.Sel.Name) {
				taintOuter(sel.X, sel.Sel.Name+" merge in "+reason)
			}
		}
		return true
	})
}

// dfRangeOrder names the order a range statement visits its elements
// in when that order varies run to run: a map's or a channel's.
func dfRangeOrder(pkg *Package, rs *ast.RangeStmt) string {
	t := dfTypeOf(pkg, rs.X)
	if t == nil {
		return ""
	}
	switch t.Underlying().(type) {
	case *types.Map:
		return "map iteration order"
	case *types.Chan:
		return "channel delivery order"
	}
	return ""
}

// dfLoopVars returns the objects of a range statement's key and value.
func dfLoopVars(pkg *Package, rs *ast.RangeStmt) map[types.Object]bool {
	vars := map[types.Object]bool{}
	for _, v := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := v.(*ast.Ident); ok {
			if obj := pkgObjectOf(pkg, id); obj != nil {
				vars[obj] = true
			}
		}
	}
	return vars
}

// mergeMethodName reports whether a method name is merge-shaped.
func mergeMethodName(name string) bool {
	for _, m := range []string{"add", "merge", "combine", "accumulate", "reduce"} {
		if strings.EqualFold(name, m) {
			return true
		}
	}
	return false
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// sinkScan records findings for tainted values reaching sinks, and the
// summary facts (returns, param-to-sink forwarding).
func (df *dfFunc) sinkScan(body *ast.BlockStmt, collect bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if reason := df.taintOf(r); reason != "" && !isParamReason(reason) {
					df.summary.returnsTaint = pickReason(df.summary.returnsTaint, reason)
				}
			}
		case *ast.CallExpr:
			df.checkSinkCall(n, collect)
		case *ast.RangeStmt:
			if collect {
				df.mapEmission(n)
			}
		}
		return true
	})
}

// mapEmission records sink calls inside a map range whose arguments
// read the loop variables: the calls emit in map iteration order, which
// Go randomizes per run, even when every emitted value is clean.
func (df *dfFunc) mapEmission(rs *ast.RangeStmt) {
	if dfRangeOrder(df.pkg, rs) != "map iteration order" {
		return
	}
	loopVars := dfLoopVars(df.pkg, rs)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		q := qualifiedFuncName(calleeOf(df.pkg, call))
		if !df.sinks[q] {
			return true
		}
		for _, arg := range call.Args {
			if dfReads(df.pkg, arg, loopVars) {
				df.report(arg.Pos(), "sink "+shortQualified(q)+" called in map iteration order with the loop variables: emission order varies per run; iterate sorted keys instead")
				break
			}
		}
		return true
	})
}

// dfReads reports whether e mentions any of vars.
func dfReads(pkg *Package, e ast.Expr, vars map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && vars[pkgObjectOf(pkg, id)] {
			found = true
		}
		return !found
	})
	return found
}

// report records one finding, at most one per position: a sink
// argument can be both tainted and emitted in map order.
func (df *dfFunc) report(pos token.Pos, msg string) {
	for _, f := range df.found {
		if f.pos == pos {
			return
		}
	}
	df.found = append(df.found, dfFinding{pos: pos, msg: msg})
}

func (df *dfFunc) checkSinkCall(call *ast.CallExpr, collect bool) {
	callee := calleeOf(df.pkg, call)
	if callee == nil {
		return
	}
	q := qualifiedFuncName(callee)
	if df.sinks[q] {
		df.flagArgs(call, shortQualified(q), collect)
		return
	}
	sum := df.res.summaries[callee]
	if sum == nil || len(sum.paramSinks) == 0 {
		return
	}
	for i, arg := range call.Args {
		chain, ok := sum.paramSinks[i]
		if !ok {
			continue
		}
		reason := df.taintOf(arg)
		switch {
		case reason == "":
		case isParamReason(reason):
			idx := paramIndex(reason)
			df.summary.paramSinks[idx] = callee.Name() + " -> " + chain
		case collect:
			df.report(arg.Pos(), "nondeterministic value (tainted by "+reason+") reaches "+chain+" via "+callee.Name()+": rendered output must be byte-identical at any worker count; derive it deterministically or annotate the exception")
		}
	}
}

// flagArgs reports tainted arguments of a direct sink call.
func (df *dfFunc) flagArgs(call *ast.CallExpr, sink string, collect bool) {
	for _, arg := range call.Args {
		reason := df.taintOf(arg)
		switch {
		case reason == "":
		case isParamReason(reason):
			df.summary.paramSinks[paramIndex(reason)] = sink
		case collect:
			df.report(arg.Pos(), "nondeterministic value (tainted by "+reason+") reaches "+sink+": rendered output must be byte-identical at any worker count; derive it deterministically or annotate the exception")
		}
	}
}

func paramIndex(reason string) int {
	n := 0
	for _, c := range strings.TrimPrefix(reason, dfParamPrefix) {
		n = n*10 + int(c-'0')
	}
	return n
}

// taintOf computes the taint reason of an expression, "" when clean.
func (df *dfFunc) taintOf(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := pkgObjectOf(df.pkg, e); obj != nil {
			return df.tainted[obj]
		}
	case *ast.ParenExpr:
		return df.taintOf(e.X)
	case *ast.StarExpr:
		return df.taintOf(e.X)
	case *ast.UnaryExpr:
		return df.taintOf(e.X)
	case *ast.BinaryExpr:
		return pickReason(df.taintOf(e.X), df.taintOf(e.Y))
	case *ast.SelectorExpr:
		// A field read of a tainted base is tainted; a package-qualified
		// name is not a read of anything.
		if id, ok := stripParens(e.X).(*ast.Ident); ok {
			if _, isPkg := pkgObjectOf(df.pkg, id).(*types.PkgName); isPkg {
				return ""
			}
		}
		return df.taintOf(e.X)
	case *ast.IndexExpr:
		return df.taintOf(e.X)
	case *ast.IndexListExpr:
		return df.taintOf(e.X)
	case *ast.SliceExpr:
		return df.taintOf(e.X)
	case *ast.TypeAssertExpr:
		return df.taintOf(e.X)
	case *ast.CallExpr:
		return df.callTaint(e)
	}
	// Composite and basic literals, func literals: clean by design.
	return ""
}

// callTaint computes the taint of a call's value: a nondeterminism
// source, a module function summarized as returning taint, a type
// conversion, or any ordinary call propagating a tainted argument or
// receiver into its result.
func (df *dfFunc) callTaint(call *ast.CallExpr) string {
	if reason := dfSourceCall(df.pkg, call); reason != "" {
		return reason
	}
	// Type conversions (float64(x), time.Duration(x)) pass taint through.
	if len(call.Args) == 1 {
		if tv, ok := df.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
			return df.taintOf(call.Args[0])
		}
	}
	if callee := calleeOf(df.pkg, call); callee != nil {
		if sum := df.res.summaries[callee]; sum != nil && sum.returnsTaint != "" {
			return "via " + callee.Name() + ": " + sum.returnsTaint
		}
	}
	reason := ""
	for _, a := range call.Args {
		reason = pickReason(reason, df.taintOf(a))
	}
	if recv := callReceiver(call); recv != nil {
		reason = pickReason(reason, df.taintOf(recv))
	}
	return reason
}

// dfSourceCall recognizes the root nondeterminism sources: wall-clock
// reads and the global RNG. Methods and the math/rand constructors are
// not sources: a locally seeded generator is reproducible.
func dfSourceCall(pkg *Package, call *ast.CallExpr) string {
	sel, ok := stripParens(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pkgObjectOf(pkg, sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return "" // methods, e.g. a locally-seeded (*rand.Rand).Intn
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return "time." + fn.Name()
		}
	case "math/rand", "math/rand/v2":
		switch fn.Name() {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			// deterministic constructors
		default:
			return fn.Pkg().Path() + "." + fn.Name()
		}
	}
	return ""
}

// dfTypeOf is Pass.TypeOf for code running outside a Pass.
func dfTypeOf(pkg *Package, e ast.Expr) types.Type {
	if tv, ok := pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// dfSortedSlices collects the objects a function passes to sort.* or
// slices.Sort*, which exempts the collect-and-sort idiom.
func dfSortedSlices(pkg *Package, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pkgObjectOf(pkg, sel.Sel).(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		if id, ok := call.Args[0].(*ast.Ident); ok {
			if obj := pkgObjectOf(pkg, id); obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// dfAppendsOnlyLoopVars reports whether every appended element is one
// of the range statement's own key/value identifiers.
func dfAppendsOnlyLoopVars(pkg *Package, call *ast.CallExpr, loopVars map[types.Object]bool) bool {
	if len(loopVars) == 0 {
		return false
	}
	for _, a := range call.Args[1:] {
		id, ok := a.(*ast.Ident)
		if !ok || !loopVars[pkgObjectOf(pkg, id)] {
			return false
		}
	}
	return len(call.Args) > 1
}

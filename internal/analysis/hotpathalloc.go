package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// HotPathAlloc guards the replay fast path of PR 5: the simulation's
// per-reference miss accounting moved from string-keyed maps to dense
// arrays indexed by variant position (sim's walkCost and lineCounts),
// because a map index on the hot path hashes its key on every reference
// and — when the key is built per access — allocates. A regression that reintroduces a
// string-keyed counter map inside a replay loop would be invisible to
// the differential tests (results stay identical; only the allocation
// profile degrades), so the invariant is linted instead.
//
// Inside Config.HotPkgs, the analyzer flags increments of a
// string-keyed integer map element inside any for/range loop:
//
//	m[k]++            m[k] += n            m[k] -= n
//
// where m's type is map[string]<integer>. Only integer element types
// are counters; float-valued maps (averages, normalized sizes filled
// once per row) are report-shaping, not per-reference accounting, and
// are not flagged. Plain assignments (m[k] = v) and increments outside
// any loop are likewise fine: the hazard is per-iteration hashing, not
// map use as such.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "flags string-keyed counter-map increments inside loops in hot-path packages",
	Run:  runHotPathAlloc,
}

func runHotPathAlloc(pass *Pass) {
	if !slices.Contains(pass.Config.HotPkgs, pass.Pkg.Path) {
		return
	}
	for _, f := range pass.Pkg.Files {
		// Nested loops would report the same statement once per
		// enclosing loop; dedupe by position.
		reported := map[token.Pos]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.ForStmt:
				body = n.Body
			case *ast.RangeStmt:
				body = n.Body
			default:
				return true
			}
			checkHotLoopBody(pass, body, reported)
			return true
		})
	}
}

func checkHotLoopBody(pass *Pass, body *ast.BlockStmt, reported map[token.Pos]bool) {
	report := func(pos token.Pos, idx *ast.IndexExpr) {
		if reported[pos] {
			return
		}
		reported[pos] = true
		pass.Reportf(pos, "string-keyed counter map %s incremented inside a loop: each iteration hashes the key; index a dense array by position instead (see sim's per-variant lineCounts)",
			exprName(idx.X))
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IncDecStmt:
			if idx := stringCounterIndex(pass, n.X); idx != nil {
				report(n.Pos(), idx)
			}
		case *ast.AssignStmt:
			if n.Tok != token.ADD_ASSIGN && n.Tok != token.SUB_ASSIGN {
				return true
			}
			for _, lhs := range n.Lhs {
				if idx := stringCounterIndex(pass, lhs); idx != nil {
					report(n.Pos(), idx)
				}
			}
		}
		return true
	})
}

// stringCounterIndex returns e as an index expression over a
// map[string]<integer>, or nil if e is anything else.
func stringCounterIndex(pass *Pass, e ast.Expr) *ast.IndexExpr {
	idx, ok := stripParens(e).(*ast.IndexExpr)
	if !ok {
		return nil
	}
	t := pass.TypeOf(idx.X)
	if t == nil {
		return nil
	}
	m, ok := t.Underlying().(*types.Map)
	if !ok {
		return nil
	}
	key, ok := m.Key().Underlying().(*types.Basic)
	if !ok || key.Info()&types.IsString == 0 {
		return nil
	}
	elem, ok := m.Elem().Underlying().(*types.Basic)
	if !ok || elem.Info()&types.IsInteger == 0 {
		return nil
	}
	return idx
}

// exprName renders the indexed map expression for the message, falling
// back to a placeholder for anything beyond a selector chain.
func exprName(e ast.Expr) string {
	switch e := stripParens(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprName(e.X) + "." + e.Sel.Name
	}
	return "(map)"
}

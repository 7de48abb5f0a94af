package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Config parameterizes the analyzers so the same implementations run
// against both the real module and the small fixture modules under
// testdata. DefaultConfig wires the repository's invariants.
type Config struct {
	// CountersType is the qualified name ("pkgpath.Type") of the atomic
	// counters struct whose fields must never be touched directly outside
	// its own package.
	CountersType string
	// ErrInterface is the qualified name ("pkgpath.Type") of the
	// page-table interface whose method errors must never be discarded.
	ErrInterface string
	// ErrPkgs lists packages whose exported operations' error results
	// must never be discarded (the service layer).
	ErrPkgs []string
	// NodeTypes lists the qualified names ("pkgpath.Type") of arena-managed
	// node and payload types that must never be allocated with bare
	// make/new/composite literals.
	NodeTypes []string
	// AllocPkg is the import path of the arena package, the one place
	// allowed to allocate NodeTypes storage directly.
	AllocPkg string
	// HotPkgs lists the packages whose replay loops are allocation-
	// sensitive; hotpathalloc flags string-keyed counter maps only
	// inside them.
	HotPkgs []string
	// HandleTypes lists the qualified names ("pkgpath.Type") of
	// generation-tagged arena handle types; handlelife tracks their
	// lifetimes across Reset/recycle calls.
	HandleTypes []string
	// RecycleFuncs lists qualified names ("pkgpath.Recv.Method" or
	// "pkgpath.Func") of functions that invalidate outstanding arena
	// handles, beyond AllocPkg's own Reset methods (e.g. the pooled
	// recycle path through the Resetter interface).
	RecycleFuncs []string
	// SinkFuncs lists qualified names of rendering and merge entry
	// points; detflow reports when a value tainted by a nondeterminism
	// source reaches one of them.
	SinkFuncs []string
}

// DefaultConfig returns the configuration enforcing this repository's
// invariants for the given module path.
func DefaultConfig(module string) Config {
	p := func(rel string) string { return module + "/" + rel }
	return Config{
		CountersType: p("internal/pagetable") + ".Counters",
		ErrInterface: p("internal/pagetable") + ".PageTable",
		ErrPkgs:      []string{p("internal/service")},
		NodeTypes: []string{
			p("internal/core") + ".node",
			p("internal/core") + ".coarseNode",
			p("internal/linear") + ".leafPage",
			p("internal/forward") + ".fnode",
			p("internal/forward") + ".fentry",
			p("internal/forward") + ".gnode",
			p("internal/forward") + ".gentry",
			p("internal/hashed") + ".node",
			p("internal/hashed") + ".wnode",
			p("internal/hashed") + ".snode",
			p("internal/hashed") + ".invEntry",
		},
		AllocPkg:    p("internal/ptalloc"),
		HotPkgs:     []string{p("internal/sim")},
		HandleTypes: []string{p("internal/ptalloc") + ".Handle"},
		RecycleFuncs: []string{
			p("internal/pagetable") + ".Resetter.Reset",
			p("internal/sim") + ".TablePool.Release",
		},
		SinkFuncs: []string{
			p("internal/report") + ".Table.Row",
			p("internal/report") + ".Table.Render",
			p("internal/report") + ".Table.RenderCSV",
			p("internal/engine") + ".Fan",
			p("internal/engine") + ".FanWith",
		},
	}
}

// Diagnostic is one finding, positioned and attributed to a check.
type Diagnostic struct {
	// Check names the analyzer that produced the finding.
	Check string
	// Pos is the finding's resolved source position.
	Pos token.Position
	// Message explains the violated invariant.
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Analyzer is one named check.
type Analyzer struct {
	// Name is the check identifier used in output and in
	// //ptlint:allow comments.
	Name string
	// Doc is a one-line description of the guarded invariant.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Pass is one analyzer's view of one package.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Module is the loaded module (for cross-package type lookups).
	Module *Module
	// Pkg is the package under analysis.
	Pkg *Package
	// Config carries the project-specific invariant parameters.
	Config Config
	// Fset resolves positions.
	Fset *token.FileSet

	diags *[]Diagnostic
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Check:   p.Analyzer.Name,
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e in the package under analysis, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// ObjectOf resolves an identifier to its object via Uses then Defs.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Pkg.Info.Uses[id]; o != nil {
		return o
	}
	return p.Pkg.Info.Defs[id]
}

// LookupQualified resolves a "pkgpath.Name" qualified type name against
// the loaded module and the package's transitive imports. It returns nil
// if the package or name is not reachable from this pass.
func (p *Pass) LookupQualified(qualified string) types.Object {
	i := strings.LastIndex(qualified, ".")
	if i < 0 {
		return nil
	}
	pkgPath, name := qualified[:i], qualified[i+1:]
	if lp := p.Module.Lookup(pkgPath); lp != nil {
		return lp.Types.Scope().Lookup(name)
	}
	if tp := findImported(p.Pkg.Types, pkgPath, map[*types.Package]bool{}); tp != nil {
		return tp.Scope().Lookup(name)
	}
	return nil
}

func findImported(pkg *types.Package, path string, seen map[*types.Package]bool) *types.Package {
	if seen[pkg] {
		return nil
	}
	seen[pkg] = true
	for _, imp := range pkg.Imports() {
		if imp.Path() == path {
			return imp
		}
		if found := findImported(imp, path, seen); found != nil {
			return found
		}
	}
	return nil
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AtomicCounters,
		LockSafety,
		ErrDrop,
		ArenaAlloc,
		HotPathAlloc,
		GuardedBy,
		HandleLife,
		DetFlow,
	}
}

// AnalyzerStat is one analyzer's cost and yield over a whole run, for
// ptlint -stats.
type AnalyzerStat struct {
	// Name is the analyzer's check identifier.
	Name string
	// Duration is the wall time spent in the analyzer's Run across all
	// packages, including its share of memoized summary construction
	// (whichever analyzer touches a shared summary first pays for it).
	Duration time.Duration
	// Findings counts the diagnostics the analyzer produced that
	// survived //ptlint:allow suppression.
	Findings int
	// Suppressed counts the diagnostics silenced by //ptlint:allow
	// annotations — the analyzer fired, a justification stood in.
	Suppressed int
}

// Run executes the analyzers over every package of the module, drops
// findings suppressed by //ptlint:allow comments, and returns the
// survivors sorted by position then check name. Paths in the returned
// diagnostics are relative to the module root when possible, so output
// is stable across checkouts.
func Run(mod *Module, analyzers []*Analyzer, cfg Config) []Diagnostic {
	diags, _ := RunWithStats(mod, analyzers, cfg)
	return diags
}

// RunWithStats is Run plus per-analyzer timing and finding/suppressed
// counts, in the same order as the analyzers argument.
func RunWithStats(mod *Module, analyzers []*Analyzer, cfg Config) ([]Diagnostic, []AnalyzerStat) {
	var diags []Diagnostic
	stats := make([]AnalyzerStat, len(analyzers))
	for i, a := range analyzers {
		stats[i].Name = a.Name
	}
	for _, pkg := range mod.Packages {
		for i, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Module:   mod,
				Pkg:      pkg,
				Config:   cfg,
				Fset:     mod.Fset,
				diags:    &diags,
			}
			start := time.Now()
			a.Run(pass)
			stats[i].Duration += time.Since(start)
		}
	}

	statOf := map[string]*AnalyzerStat{}
	for i := range stats {
		statOf[stats[i].Name] = &stats[i]
	}
	allows := collectAllows(mod)
	kept := diags[:0]
	for _, d := range diags {
		if allows.suppresses(d) {
			statOf[d.Check].Suppressed++
		} else {
			statOf[d.Check].Findings++
			kept = append(kept, d)
		}
	}
	diags = kept

	for i := range diags {
		if rel, err := filepath.Rel(mod.RootDir, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return diags, stats
}

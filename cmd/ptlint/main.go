// Command ptlint runs the repository's static-analysis suite
// (internal/analysis): eight zero-dependency analyzers that mechanically
// enforce the determinism, atomic-counter, locking, error-handling,
// arena-lifetime and annotation invariants the concurrent engine and
// service layer rely on.
//
// Usage:
//
//	ptlint [-json] [-checks list] [-stats] [packages]
//
// The package argument is accepted for go-tool symmetry but ptlint
// always analyzes the whole module containing the working directory;
// ./... is the canonical spelling. Findings print one per line as
//
//	file:line:col: [check] message
//
// or, with -json, in the versioned schema documented in
// internal/analysis (WriteJSON). Exit status is 0 when clean, 1 when
// there are findings, 2 on usage or load errors.
//
// A finding is suppressed by a comment on the same line or the line
// above:
//
//	//ptlint:allow <check> <one-line justification>
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"clusterpt/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ptlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON diagnostics")
	checks := fs.String("checks", "", "comma-separated checks to run (default: all)")
	list := fs.Bool("list", false, "list available checks and exit")
	stats := fs.Bool("stats", false, "print per-analyzer timing and finding counts to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	all := analysis.Analyzers()
	if *list {
		for _, a := range all {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	selected := all
	if *checks != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range all {
			byName[a.Name] = a
		}
		selected = nil
		for _, name := range strings.Split(*checks, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(stderr, "ptlint: unknown check %q (use -list)\n", name)
				return 2
			}
			selected = append(selected, a)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "ptlint: %v\n", err)
		return 2
	}
	mod, err := analysis.LoadModule(cwd)
	if err != nil {
		fmt.Fprintf(stderr, "ptlint: %v\n", err)
		return 2
	}

	diags, perCheck := analysis.RunWithStats(mod, selected, analysis.DefaultConfig(mod.Path))
	if *stats {
		// Stats go to stderr so -json stdout stays machine-parseable
		// and the text output stays grep-stable.
		var total time.Duration
		for _, s := range perCheck {
			suffix := ""
			if s.Suppressed > 0 {
				suffix = fmt.Sprintf(", %d allowed", s.Suppressed)
			}
			fmt.Fprintf(stderr, "ptlint: %-16s %8.1fms  %d finding(s)%s\n", s.Name, float64(s.Duration.Microseconds())/1000, s.Findings, suffix)
			total += s.Duration
		}
		fmt.Fprintf(stderr, "ptlint: %-16s %8.1fms\n", "total", float64(total.Microseconds())/1000)
	}
	names := make([]string, len(selected))
	for i, a := range selected {
		names[i] = a.Name
	}
	if *jsonOut {
		if err := analysis.WriteJSON(stdout, names, diags); err != nil {
			fmt.Fprintf(stderr, "ptlint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "ptlint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

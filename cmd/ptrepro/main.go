// Command ptrepro regenerates every table and figure of the paper's
// evaluation (§6) from the synthetic workloads: Table 1, Figures 9 and
// 10 (page-table size), Figures 11a–d (cache lines per TLB miss), the
// Appendix Table 2 analytic cross-check, and the §6.3/§7 sensitivity
// sweeps.
//
// Every experiment resolves through the engine registry
// (internal/engine): the engine fans each experiment's cells over a
// bounded worker pool and merges results deterministically, and -shards
// lets each churn and replication cell spread its independent replays
// over intra-cell lanes carved from the same worker budget, so output
// is byte-identical at any (-workers, -shards) combination for a fixed
// -seed/-refs.
//
// Usage:
//
//	ptrepro [-exp all|<name>] [-refs N] [-seed S] [-workers N] [-shards K] [-replicas R] [-mmu flat|l2|l2+pwc] [-csv] [-v]
//	        [-cpuprofile FILE] [-memprofile FILE]
//	ptrepro -list
//
// -cpuprofile and -memprofile write stdlib pprof profiles; every cell
// carries "experiment" and "cell" labels, so
// `go tool pprof -tagfocus cell=hierarchy/coral` isolates one cell.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"

	"clusterpt/internal/engine"
	"clusterpt/internal/report"
	"clusterpt/internal/sim"
)

var (
	expFlag      = flag.String("exp", "all", "experiment to run (see -list)")
	refsFlag     = flag.Int("refs", 400_000, "references per workload trace")
	seedFlag     = flag.Uint64("seed", 1, "base trace seed (cells derive independent streams)")
	csvFlag      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	workersFlag  = flag.Int("workers", runtime.GOMAXPROCS(0), "max concurrent experiment cells")
	shardsFlag   = flag.Int("shards", 1, "intra-cell lanes for the churn and replication cells' independent replays (shares the -workers budget; results identical at any value)")
	replicasFlag = flag.Int("replicas", 0, "cap on concurrently live replicated point replays in the replication experiment (0 = lanes decide; results identical at any value)")
	mmuFlag      = flag.String("mmu", "flat", "translation hierarchy around each simulated TLB: flat, l2, or l2+pwc")
	verboseFlag  = flag.Bool("v", false, "log per-experiment progress to stderr")
	listFlag     = flag.Bool("list", false, "list registered experiments and exit")
	cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile (labelled by experiment and cell) to this file")
	memProfile   = flag.String("memprofile", "", "write a heap profile to this file when the run ends")
)

func main() {
	flag.Parse()
	if err := checkFlags(); err != nil {
		fmt.Fprintf(os.Stderr, "ptrepro: %v\n", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *listFlag {
		list(os.Stdout)
		return
	}
	if err := runProfiled(ctx, os.Stdout, *expFlag); err != nil {
		fmt.Fprintf(os.Stderr, "ptrepro: %v\n", err)
		os.Exit(1)
	}
}

// checkFlags rejects flag values no experiment can honor.
func checkFlags() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"refs", *refsFlag},
		{"workers", *workersFlag},
		{"shards", *shardsFlag},
		{"replicas", *replicasFlag},
	} {
		if f.v < 0 {
			return fmt.Errorf("-%s %d: must not be negative", f.name, f.v)
		}
	}
	_, err := sim.ParseMMU(*mmuFlag)
	return err
}

func newEngine() *engine.Engine {
	// The flag is validated in main; the experiments honor the zero
	// (flat) value by reproducing the pre-hierarchy output byte for byte.
	mmu, _ := sim.ParseMMU(*mmuFlag)
	return engine.New(engine.Options{
		Refs:     *refsFlag,
		Seed:     *seedFlag,
		Workers:  *workersFlag,
		Shards:   *shardsFlag,
		Replicas: *replicasFlag,
		MMU:      mmu,
		Verbose:  *verboseFlag,
	})
}

// list prints the registry: one line per experiment, with dependencies.
func list(w io.Writer) {
	eng := newEngine()
	for _, name := range eng.Names() {
		desc, deps, _ := eng.Describe(name)
		if len(deps) > 0 {
			fmt.Fprintf(w, "%-10s %s (after: %v)\n", name, desc, deps)
		} else {
			fmt.Fprintf(w, "%-10s %s\n", name, desc)
		}
	}
}

// run executes the selected experiment(s) and renders every table the
// engine hands back — including tables from a failing experiment (the
// verify self-check renders its FAIL rows before erroring out).
func run(ctx context.Context, w io.Writer, exp string) error {
	results, err := newEngine().Run(ctx, exp)
	for _, r := range results {
		for _, t := range r.Tables {
			render(w, t)
		}
		for _, n := range r.Notes {
			fmt.Fprintf(w, "%s\n\n", n)
		}
	}
	return err
}

// runProfiled is run under the -cpuprofile and -memprofile flags.
func runProfiled(ctx context.Context, w io.Writer, exp string) error {
	return engine.WithProfiles(*cpuProfile, *memProfile, func() error { return run(ctx, w, exp) })
}

// render writes a table in the selected format.
func render(w io.Writer, t *report.Table) {
	if *csvFlag {
		t.RenderCSV(w)
		return
	}
	t.Render(w)
}

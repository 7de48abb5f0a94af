// Command tracegen inspects and emits the synthetic workloads that stand
// in for the paper's ten programs: address-space snapshots (region
// layout, density, block burstiness) and reference traces.
//
// Usage:
//
//	tracegen                         # list profiles with footprints
//	tracegen -w coral                # describe one workload's snapshot
//	tracegen -w coral -trace 20      # also emit the first 20 references
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"clusterpt/internal/report"
	"clusterpt/internal/sim"
	"clusterpt/internal/trace"
)

var (
	workload = flag.String("w", "", "workload to describe (default: list all)")
	traceN   = flag.Int("trace", 0, "emit the first N trace references")
	seed     = flag.Uint64("seed", 1, "trace seed")
)

func main() {
	flag.Parse()
	if err := checkFlags(); err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(2)
	}
	if err := run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
}

// checkFlags rejects flag values tracegen cannot honor.
func checkFlags() error {
	if *traceN < 0 {
		return fmt.Errorf("-trace %d: must not be negative", *traceN)
	}
	return nil
}

// run prints the selected listing or description to w. It checks the
// flags itself, so a caller that skips main still gets the flag errors.
func run(w io.Writer) error {
	if err := checkFlags(); err != nil {
		return err
	}
	if *workload == "" {
		list(w)
		return nil
	}
	p, ok := trace.ProfileByName(*workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	describe(w, p)
	return nil
}

func list(w io.Writer) {
	t := report.NewTable("Workload profiles (§6.2 + kernel)",
		"workload", "processes", "mapped pages", "Table-1 target", "hashed KB", "blocks(16)", "pages/block", "full blocks")
	for _, p := range trace.Profiles() {
		var mapped uint64
		for _, s := range p.Snapshot() {
			mapped += s.MappedPages()
		}
		st := burst(p)
		t.Row(p.Name, len(p.Procs), mapped, p.TargetPages(),
			fmt.Sprintf("%.0f", float64(mapped*24)/1024),
			st.Blocks, fmt.Sprintf("%.1f", st.PagesPerBlock), st.FullBlocks)
	}
	t.Render(w)
}

func burst(p trace.Profile) sim.BurstStats {
	var total sim.BurstStats
	for _, s := range p.Snapshot() {
		st := sim.Burstiness(s.AllPages(), 4)
		total.Pages += st.Pages
		total.Blocks += st.Blocks
		total.FullBlocks += st.FullBlocks
	}
	if total.Blocks > 0 {
		total.PagesPerBlock = float64(total.Pages) / float64(total.Blocks)
	}
	return total
}

func describe(w io.Writer, p trace.Profile) {
	for _, s := range p.Snapshot() {
		t := report.NewTable(fmt.Sprintf("%s / %s (share %.0f%%)", p.Name, s.Name, s.RefShare*100),
			"region", "base", "extent pages", "mapped", "density", "pattern", "weight")
		for _, r := range s.Regions {
			t.Row(r.Spec.Name, r.Base.String(), r.Spec.Pages, len(r.Pages),
				fmt.Sprintf("%.2f", r.Spec.Density), r.Spec.Pattern.String(),
				fmt.Sprintf("%.2f", r.Spec.Weight))
		}
		t.Render(w)

		if *traceN > 0 {
			gen := trace.NewGenerator(s, *seed*31+1)
			fmt.Fprintf(w, "first %d references:\n", *traceN)
			for i := 0; i < *traceN; i++ {
				fmt.Fprintf(w, "  %s\n", gen.Next())
			}
			fmt.Fprintln(w)
		}
	}
}

package engine

import (
	"context"
	"fmt"

	"clusterpt/internal/report"
	"clusterpt/internal/sim"
)

// The hierarchy experiment re-renders Figure 11a's miss-cost comparison
// under the three translation pipelines the -mmu flag selects: the
// paper's flat single L1, L1 plus a 1024-entry unified L2 TLB, and
// L1+L2 plus a 16-entry page-walk cache. One cell per workload replays
// its trace once through a shared L1 stage feeding all three pipelines
// (sim.RunFigure11Pipelines), so the L1 miss denominator is identical
// across the three tables by construction, and the rendered tables are
// byte-identical at any -workers.

// hierarchyModes are the rendered pipeline configurations, in report
// order (the -mmu flag spellings).
var hierarchyModes = []string{"flat", "l2", "l2+pwc"}

func runHierarchy(ctx context.Context, rc *RunContext) (*Result, error) {
	mmus := make([]sim.MMUConfig, len(hierarchyModes))
	for i, mode := range hierarchyModes {
		m, err := sim.ParseMMU(mode)
		if err != nil {
			return nil, err
		}
		mmus[i] = m
	}
	profiles := tracedProfiles()
	cells := make([]Cell[[]sim.AccessRow], len(profiles))
	for i, p := range profiles {
		cells[i] = Cell[[]sim.AccessRow]{
			Key: "hierarchy/" + p.Name,
			Run: func(ctx context.Context, seed uint64) ([]sim.AccessRow, error) {
				rows, err := sim.RunFigure11Pipelines(sim.Fig11a, p, sim.AccessConfig{
					Refs: rc.Refs, Seed: seed, Buf: sim.ReplayBufFrom(ctx),
				}, mmus)
				if err != nil {
					return nil, err
				}
				rc.CountRefs(rows[0].RefAccesses)
				return rows, nil
			},
		}
	}
	rows, err := Fan(ctx, rc, cells)
	if err != nil {
		return nil, err
	}
	var ts []*report.Table
	for m, mode := range hierarchyModes {
		t := report.NewTable(
			fmt.Sprintf("Translation hierarchy (mmu=%s): avg cache lines per 64-entry-TLB miss, single-page-size TLB", mode),
			"workload", "ref misses", "linear", "forward", "hashed", "clustered")
		for _, cell := range rows {
			row := cell[m]
			t.Row(row.Workload, row.RefMisses,
				fmt.Sprintf("%.2f", row.AvgLines["linear"]),
				fmt.Sprintf("%.2f", row.AvgLines["forward-mapped"]),
				fmt.Sprintf("%.2f", row.AvgLines["hashed"]),
				fmt.Sprintf("%.2f", row.AvgLines["clustered"]))
		}
		ts = append(ts, t)
	}
	return &Result{Tables: ts, Notes: []string{
		"ref misses (the normalization denominator) is the L1 miss count and is identical across modes.",
		"an L2 hit saves the walk but its probe costs a line: the multi-line forward-mapped walk profits, " +
			"the ~1-line hashed and clustered walks pay net overhead, and the page-walk cache moves only " +
			"the tree-walked organization — hashed tables have no upper levels to elide.",
	}}, nil
}

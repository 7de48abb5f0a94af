package engine

import (
	"context"
	"fmt"

	"clusterpt/internal/report"
	"clusterpt/internal/sim"
	"clusterpt/internal/trace"
)

// The replication experiment answers the Mitosis question in this
// codebase's terms: at what write rate does the shootdown tax of
// replicating a page table across NUMA nodes eat the read-locality win,
// per organization? One cell per (organization, replication factor
// {1,2,4,8}, write rate {0,2,10,30}%) point. An organization's points
// replay the identical eight per-node op streams, seeded from the
// organization's key rather than the point's, so within a rendered
// table only the geometry differs between columns. Each point replays
// serially, and the points merge by index, so output is byte-identical
// at any -workers.

// replicationProfile fixes the workload: the factor × write-rate × org
// grid is the story, so one representative trace keeps the cell count
// (and the rendered page) readable.
const replicationProfile = "gcc"

func runReplication(ctx context.Context, rc *RunContext) (*Result, error) {
	orgs := sim.ChurnVariants()
	p := mustProfile(replicationProfile)
	factors, rates := sim.ReplicationFactors(), sim.ReplicationWriteRates()
	pointOps := rc.Refs / 4
	if pointOps < 1 {
		pointOps = 1
	}
	cells := make([]Cell[sim.ReplicationPoint], 0, len(orgs)*len(factors)*len(rates))
	for _, org := range orgs {
		orgKey := "replication/" + org.Name
		cfg := sim.ReplicationConfig{Ops: pointOps, Seed: trace.DeriveSeed(rc.Seed, orgKey)}
		for _, f := range factors {
			for _, w := range rates {
				cells = append(cells, Cell[sim.ReplicationPoint]{
					Key: fmt.Sprintf("%s/R%d/w%d", orgKey, f, w),
					Run: func(ctx context.Context, _ uint64) (sim.ReplicationPoint, error) {
						pt, err := sim.RunReplicationPoint(p, org, f, w, cfg)
						if err == nil {
							rc.CountRefs(uint64(pointOps))
						}
						return pt, err
					},
				})
			}
		}
	}
	points, err := Fan(ctx, rc, cells)
	if err != nil {
		return nil, err
	}
	perOrg := len(factors) * len(rates)
	rows := make([]sim.ReplicationRow, len(orgs))
	for i, org := range orgs {
		rows[i] = sim.ReplicationRow{Workload: p.Name, Org: org.Name, Points: points[i*perOrg : (i+1)*perOrg]}
	}

	var ts []*report.Table
	for _, row := range rows {
		t := report.NewTable(
			fmt.Sprintf("Replicated page tables (%s, %s): total lines per op (node walks + shootdown)",
				row.Org, row.Workload),
			"write %", "R=1", "R=2", "R=4", "R=8", "best", "shootdown@R=8")
		for _, w := range rates {
			cols := make([]any, 0, 7)
			cols = append(cols, w)
			best, bestLines := 0, 0.0
			for _, f := range factors {
				pt, ok := row.Point(f, w)
				if !ok {
					return nil, fmt.Errorf("replication: %s missing point (R=%d, w=%d)", row.Org, f, w)
				}
				lines := pt.TotalLinesPerOp()
				cols = append(cols, fmt.Sprintf("%.3f", lines))
				if best == 0 || lines < bestLines {
					best, bestLines = f, lines
				}
			}
			p8, _ := row.Point(8, w)
			share := 0.0
			if total := p8.LocalLines + p8.RemoteLines + p8.Shootdown.Lines; total > 0 {
				share = float64(p8.Shootdown.Lines) / float64(total)
			}
			cols = append(cols, fmt.Sprintf("R=%d", best), fmt.Sprintf("%.0f%%", 100*share))
			t.Row(cols...)
		}
		ts = append(ts, t)
	}
	return &Result{Tables: ts, Notes: []string{
		"all cells replay the identical eight per-node op streams; only replica geometry differs within a table.",
		"reads walk the home replica: local at node<R (raw lines), remote otherwise (2x lines). " +
			"writes broadcast to every replica: 4 lines per remote IPI round + 2 per remote PTE update.",
		"the crossover reads left to right per row: replication wins while remote walks dominate, and the " +
			"write-broadcast column shows shootdown overtaking the locality win as the write rate climbs.",
	}}, nil
}

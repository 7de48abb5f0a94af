package sim

import (
	"clusterpt/internal/hashed"
	"clusterpt/internal/memcost"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/trace"
)

// SPIndexRow compares the three ways §4.2 discusses storing superpage
// PTEs in hashed organizations, on a superpage-TLB miss stream:
//
//   - multiple page tables (4KB searched first): two probes for
//     superpage hits;
//   - superpage-index hashing: one probe, but base pages of one region
//     chain to a single bucket ("longer hash chains will increase TLB
//     miss handling time");
//   - clustered: one probe, short chains — the §5 resolution.
type SPIndexRow struct {
	Workload       string
	MultiLines     float64
	SPIndexLines   float64
	ClusteredLines float64
	// SPIndexMaxChain is the longest chain the superpage-index table
	// grew — the §4.2 objection made visible.
	SPIndexMaxChain int
}

// spIndexKernel replays Figure 11b's superpage-TLB miss stream over the
// three organizations, refilled from the clustered table.
func spIndexKernel() kernel {
	return kernel{fig: Fig11b, variants: []TableVariant{
		{Name: "hashed-multi", New: variantHashedMulti},
		{Name: "hashed-spindex", New: func(m memcost.Model) pagetable.PageTable {
			return hashed.MustNewSPIndex(hashed.Config{CostModel: m}, 4)
		}},
		{Name: "clustered", New: variantClustered},
	}, refill: 2}
}

// SPIndexSweep runs one workload's superpage-TLB miss stream against the
// three organizations.
func SPIndexSweep(p trace.Profile, cfg AccessConfig) (SPIndexRow, error) {
	cfg.fill()
	row := SPIndexRow{Workload: p.Name}
	res, err := replayWorkload(spIndexKernel(), p, cfg, []MMUConfig{{}}, func(_ int, st *figureState) missHook {
		// Chain lengths are structural: the build fixes them.
		if sp, ok := st.builds[1].Table.(*hashed.SPIndexTable); ok {
			if _, maxChain := sp.ChainStats(); maxChain > row.SPIndexMaxChain {
				row.SPIndexMaxChain = maxChain
			}
		}
		return nil
	})
	if err != nil {
		return row, err
	}
	if res.misses > 0 {
		lines := &res.lines[0]
		row.MultiLines = float64(lines[0]) / float64(res.misses)
		row.SPIndexLines = float64(lines[1]) / float64(res.misses)
		row.ClusteredLines = float64(lines[2]) / float64(res.misses)
	}
	return row, nil
}

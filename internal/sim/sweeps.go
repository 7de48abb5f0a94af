package sim

import (
	"fmt"

	"clusterpt/internal/addr"
	"clusterpt/internal/core"
	"clusterpt/internal/hashed"
	"clusterpt/internal/memcost"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/trace"
)

// LineSizeRow is one point of the §6.3 cache-line-size sensitivity: the
// extra lines a clustered PTE costs when the mapping array spans lines —
// +0.125 at 128-byte lines and +0.625 at 64-byte lines for factor 16.
type LineSizeRow struct {
	LineSize       int
	AvgLines       float64
	ExtraVsOneLine float64
}

// LineSizeSweep measures the average clustered-table lines per lookup at
// uniform block offsets for the given line sizes.
func LineSizeSweep(lineSizes []int, subblockFactor int) []LineSizeRow {
	var rows []LineSizeRow
	for _, ls := range lineSizes {
		tab := core.MustNew(core.Config{
			SubblockFactor: subblockFactor,
			CostModel:      memcost.NewModel(ls),
		})
		for i := 0; i < subblockFactor; i++ {
			if err := tab.Map(addr.VPN(i), addr.PPN(i), 1); err != nil {
				panic(err)
			}
		}
		var total int
		for i := 0; i < subblockFactor; i++ {
			_, cost, ok := tab.Lookup(addr.VAOf(addr.VPN(i)))
			if !ok {
				panic("sweep lost mapping")
			}
			total += cost.Lines
		}
		avg := float64(total) / float64(subblockFactor)
		rows = append(rows, LineSizeRow{LineSize: ls, AvgLines: avg, ExtraVsOneLine: avg - 1})
	}
	return rows
}

// SubblockRow is one point of the subblock-factor space/time tradeoff
// (§3, §6.3): memory per workload and the line-crossing penalty.
type SubblockRow struct {
	Factor         int
	PTEBytes       uint64
	NormalizedSize float64 // vs hashed
	ExtraLines     float64 // line-crossing penalty at 256B lines
}

// SubblockSweep sizes a workload's clustered table at several subblock
// factors.
func SubblockSweep(p trace.Profile, factors []int) ([]SubblockRow, error) {
	m := memcost.NewModel(0)
	hashedBuilds, err := BuildWorkload(TableVariant{Name: "hashed", New: variantHashed}, BaseOnly, p, m)
	if err != nil {
		return nil, err
	}
	hashedBytes := WorkloadPTEBytes(hashedBuilds)
	var rows []SubblockRow
	for _, s := range factors {
		s := s
		v := TableVariant{
			Name: fmt.Sprintf("clustered-s%d", s),
			New: func(m memcost.Model) pagetable.PageTable {
				return core.MustNew(core.Config{SubblockFactor: s, CostModel: m})
			},
		}
		builds, err := BuildWorkload(v, BaseOnly, p, m)
		if err != nil {
			return nil, err
		}
		bytes := WorkloadPTEBytes(builds)
		extra := LineSizeSweep([]int{memcost.DefaultLineSize}, s)[0].ExtraVsOneLine
		rows = append(rows, SubblockRow{
			Factor:         s,
			PTEBytes:       bytes,
			NormalizedSize: float64(bytes) / float64(hashedBytes),
			ExtraLines:     extra,
		})
	}
	return rows, nil
}

// LoadFactorRow is one point of the §7 bucket-count sweep: measured
// average nodes per successful lookup against the Knuth 1+α/2 estimate.
type LoadFactorRow struct {
	Buckets  int
	Alpha    float64
	Measured float64
	Knuth    float64
}

// LoadFactorSweep populates a clustered table with the workload snapshot
// at several bucket counts and measures chain-search length.
func LoadFactorSweep(p trace.Profile, buckets []int) ([]LoadFactorRow, error) {
	var rows []LoadFactorRow
	for _, nb := range buckets {
		nb := nb
		v := TableVariant{
			Name: fmt.Sprintf("clustered-b%d", nb),
			New: func(m memcost.Model) pagetable.PageTable {
				return core.MustNew(core.Config{Buckets: nb, CostModel: m})
			},
		}
		builds, err := BuildWorkload(v, BaseOnly, p, memcost.NewModel(0))
		if err != nil {
			return nil, err
		}
		var alphaSum, measSum float64
		var n int
		for _, b := range builds {
			ct := b.Table.(*core.Table)
			alpha, _ := ct.ChainStats()
			var nodes, lookups uint64
			for _, vpn := range b.Snap.AllPages() {
				_, cost, ok := ct.Lookup(addr.VAOf(vpn))
				if !ok {
					return nil, fmt.Errorf("sweep lost vpn %#x", uint64(vpn))
				}
				nodes += uint64(cost.Nodes)
				lookups++
			}
			alphaSum += alpha
			measSum += float64(nodes) / float64(lookups)
			n++
		}
		alpha := alphaSum / float64(n)
		rows = append(rows, LoadFactorRow{
			Buckets:  nb,
			Alpha:    alpha,
			Measured: measSum / float64(n),
			Knuth:    AnalyticHashedLines(alpha),
		})
	}
	return rows, nil
}

// SearchOrderRow compares the §6.3 multiple-page-table probe orders for
// one workload on a partial-subblock TLB.
type SearchOrderRow struct {
	Workload        string
	BaseFirstLines  float64
	SuperFirstLines float64
}

// searchOrderKernel replays Figure 11c's partial-subblock miss stream
// over the hashed multi-table in both probe orders, refilled from the
// clustered table.
func searchOrderKernel() kernel {
	return kernel{fig: Fig11c, variants: []TableVariant{
		{Name: "base-first", New: variantHashedMulti},
		{Name: "super-first", New: variantHashedMultiSuperFirst},
		{Name: "clustered", New: variantClustered},
	}, refill: 2}
}

// SearchOrderSweep runs Figure 11c's hashed multi-table in both probe
// orders. "Doing the page traversals in the reverse order … would be a
// better option" for psb-heavy workloads (§6.3).
func SearchOrderSweep(p trace.Profile, cfg AccessConfig) (SearchOrderRow, error) {
	cfg.fill()
	row := SearchOrderRow{Workload: p.Name}
	res, err := replayWorkload(searchOrderKernel(), p, cfg, []MMUConfig{{}}, nil)
	if err != nil {
		return row, err
	}
	if res.misses > 0 {
		row.BaseFirstLines = float64(res.lines[0][0]) / float64(res.misses)
		row.SuperFirstLines = float64(res.lines[0][1]) / float64(res.misses)
	}
	return row, nil
}

// PackedRow compares plain and packed hashed PTEs (§7): −33% size, same
// lines per miss.
type PackedRow struct {
	Workload    string
	PlainBytes  uint64
	PackedBytes uint64
}

// PackedSweep sizes both hashed PTE layouts for a workload.
func PackedSweep(p trace.Profile) (PackedRow, error) {
	m := memcost.NewModel(0)
	row := PackedRow{Workload: p.Name}
	plain, err := BuildWorkload(TableVariant{Name: "hashed", New: variantHashed}, BaseOnly, p, m)
	if err != nil {
		return row, err
	}
	packed, err := BuildWorkload(TableVariant{Name: "hashed-packed", New: func(m memcost.Model) pagetable.PageTable {
		return hashed.MustNew(hashed.Config{PackedPTE: true, CostModel: m})
	}}, BaseOnly, p, m)
	if err != nil {
		return row, err
	}
	row.PlainBytes = WorkloadPTEBytes(plain)
	row.PackedBytes = WorkloadPTEBytes(packed)
	return row, nil
}

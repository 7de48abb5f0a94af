package engine

import (
	"context"
	"fmt"

	"clusterpt/internal/addr"
	"clusterpt/internal/mmu"
	"clusterpt/internal/report"
	"clusterpt/internal/sim"
	"clusterpt/internal/tlb"
	"clusterpt/internal/trace"
)

// This file defines the paper's evaluation as registry entries. Each
// experiment fans its (workload × variant × mode) cells over the worker
// pool and assembles tables from the index-ordered results, so the
// rendered output never depends on scheduling. Registration order is
// the canonical `-exp all` order (dependencies first).

func init() {
	mustRegister(Experiment{
		Name:        "table1",
		Description: "Table 1: workload characterization (TLB misses, %time, hashed KB)",
		Run:         runTable1,
	})
	mustRegister(Experiment{
		Name:        "fig9",
		Description: "Figure 9: page-table size, single page size, normalized to hashed",
		Run:         runFig9,
	})
	mustRegister(Experiment{
		Name:        "fig10",
		Description: "Figure 10: size with superpage / partial-subblock PTEs",
		Run:         runFig10,
	})
	for _, f := range []sim.Figure{sim.Fig11a, sim.Fig11b, sim.Fig11c, sim.Fig11d} {
		f := f
		mustRegister(Experiment{
			Name:        f.String(),
			Description: fig11Titles[f],
			Run: func(ctx context.Context, rc *RunContext) (*Result, error) {
				return runFig11(ctx, rc, f)
			},
		})
	}
	mustRegister(Experiment{
		Name:        "table2",
		Description: "Appendix Table 2: analytic size model vs built tables",
		Deps:        []string{"fig9"},
		Run:         runTable2,
	})
	mustRegister(Experiment{
		Name:        "lines",
		Description: "§6.3 cache-line-size sensitivity of clustered PTE line crossings",
		Run:         runLines,
	})
	mustRegister(Experiment{
		Name:        "sweeps",
		Description: "§3/§6.3/§7 sensitivity sweeps (subblock, load factor, probe order, guarded, sp-index, packed)",
		Run:         runSweeps,
	})
	mustRegister(Experiment{
		Name:        "residency",
		Description: "§6.1 ablation: page-table lines touched vs missing in a real L2",
		Deps:        []string{"fig11a"},
		Run:         runResidency,
	})
	mustRegister(Experiment{
		Name:        "swtlb",
		Description: "§7 software-TLB front-end: lines per miss with and without",
		Run:         runSwTLB,
	})
	mustRegister(Experiment{
		Name:        "multiprog",
		Description: "§7 extension: multiprogrammed TLB interference",
		Run:         runMultiprog,
	})
	mustRegister(Experiment{
		Name:        "partition",
		Description: "what-if: region-partitioned TLB slices vs the shared TLB (miss inflation)",
		Run:         runPartition,
	})
	mustRegister(Experiment{
		Name:        "churn",
		Description: "dynamic churn: map/unmap/promote replay, time-series misses + fragmentation",
		Run:         runChurn,
	})
	mustRegister(Experiment{
		Name:        "hierarchy",
		Description: "composable MMU hierarchy: Fig 11a organizations under flat, L2, and L2+PWC pipelines",
		Run:         runHierarchy,
	})
	mustRegister(Experiment{
		Name:        "replication",
		Description: "Mitosis/numaPTE: replicated tables, factor × write-rate shootdown crossover per organization",
		Run:         runReplication,
	})
	mustRegister(Experiment{
		Name:        "verify",
		Description: "reproduction self-check: headline claims as executable assertions",
		Run:         runVerify,
	})
}

// tracedProfiles returns the profiles that carry a reference trace.
func tracedProfiles() []trace.Profile {
	var out []trace.Profile
	for _, p := range trace.Profiles() {
		if !p.SnapshotOnly {
			out = append(out, p)
		}
	}
	return out
}

// mustProfile resolves a profile that the experiment definitions name
// statically; a miss is a programming error.
func mustProfile(name string) trace.Profile {
	p, ok := trace.ProfileByName(name)
	if !ok {
		panic(fmt.Sprintf("engine: no profile %q", name))
	}
	return p
}

// norm formats a normalized size the way the paper's figures do,
// flagging bars that run off the truncated axis.
func norm(v float64) string {
	s := fmt.Sprintf("%.3f", v)
	if v > 5 {
		s += " (>5)"
	}
	return s
}

func tables(ts ...*report.Table) *Result { return &Result{Tables: ts} }

// --- Table 1 ---

func runTable1(ctx context.Context, rc *RunContext) (*Result, error) {
	profiles := trace.Profiles()
	cells := make([]Cell[sim.Table1Row], len(profiles))
	for i, p := range profiles {
		cells[i] = Cell[sim.Table1Row]{
			Key: "table1/" + p.Name,
			Run: func(ctx context.Context, seed uint64) (sim.Table1Row, error) {
				row, err := sim.RunTable1Row(p, sim.Table1Config{Refs: rc.Refs, Seed: seed, Buf: sim.ReplayBufFrom(ctx)})
				if err == nil {
					rc.CountRefs(row.Accesses)
				}
				return row, err
			},
		}
	}
	rows, err := Fan(ctx, rc, cells)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Table 1: workload characteristics (simulated trace vs paper)",
		"workload", "refs", "TLB misses", "miss ratio", "%time TLB (40cyc)", "paper %", "hashed KB", "paper KB")
	for _, r := range rows {
		t.Row(r.Workload, r.Accesses, r.Misses,
			fmt.Sprintf("%.4f", r.MissRatio),
			fmt.Sprintf("%.1f", r.PctTLBTime),
			fmt.Sprintf("%.0f", r.Paper.PctTLBTime),
			fmt.Sprintf("%.0f", r.HashedKB),
			r.Paper.HashedKB)
	}
	return tables(t), nil
}

// --- Figures 9 and 10 (size) ---

func runFig9(ctx context.Context, rc *RunContext) (*Result, error) {
	profiles := trace.Profiles()
	// One pool for the whole experiment: each cell's tables are recycled
	// into the next cell's builds (the pool is safe under Fan's workers).
	pool := sim.NewTablePool()
	cells := make([]Cell[sim.SizeRow], len(profiles))
	for i, p := range profiles {
		cells[i] = Cell[sim.SizeRow]{
			Key: "fig9/" + p.Name,
			Run: func(ctx context.Context, seed uint64) (sim.SizeRow, error) {
				return sim.Figure9RowPooled(p, pool)
			},
		}
	}
	rows, err := Fan(ctx, rc, cells)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Figure 9: page table size, single page size (normalized to hashed; paper truncates at 5.0)",
		"workload", "linear-6level", "linear-1level", "forward", "hashed", "clustered", "clustered bar")
	for _, r := range rows {
		t.Row(r.Workload,
			norm(r.Normalized["linear-6level"]),
			norm(r.Normalized["linear-1level"]),
			norm(r.Normalized["forward-mapped"]),
			norm(r.Normalized["hashed"]),
			norm(r.Normalized["clustered"]),
			report.Bar(r.Normalized["clustered"], 1.0, 20))
	}
	return tables(t), nil
}

func runFig10(ctx context.Context, rc *RunContext) (*Result, error) {
	profiles := trace.Profiles()
	pool := sim.NewTablePool()
	cells := make([]Cell[sim.SizeRow], len(profiles))
	for i, p := range profiles {
		cells[i] = Cell[sim.SizeRow]{
			Key: "fig10/" + p.Name,
			Run: func(ctx context.Context, seed uint64) (sim.SizeRow, error) {
				return sim.Figure10RowPooled(p, pool)
			},
		}
	}
	rows, err := Fan(ctx, rc, cells)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Figure 10: page tables below hashed size, with superpage/partial-subblock PTEs (normalized to hashed)",
		"workload", "hashed+superpage", "clustered", "clustered+superpage", "clustered+psb")
	for _, r := range rows {
		t.Row(r.Workload,
			norm(r.Normalized["hashed+superpage"]),
			norm(r.Normalized["clustered"]),
			norm(r.Normalized["clustered+superpage"]),
			norm(r.Normalized["clustered+psb"]))
	}
	return tables(t), nil
}

// --- Figures 11a–d (access time) ---

var fig11Titles = map[sim.Figure]string{
	sim.Fig11a: "Figure 11a: avg cache lines per TLB miss, single-page-size TLB (64-entry FA)",
	sim.Fig11b: "Figure 11b: avg cache lines per TLB miss, superpage TLB (4KB+64KB)",
	sim.Fig11c: "Figure 11c: avg cache lines per TLB miss, partial-subblock TLB (factor 16)",
	sim.Fig11d: "Figure 11d: avg cache lines per TLB miss, complete-subblock TLB with prefetch (note scale)",
}

func runFig11(ctx context.Context, rc *RunContext, f sim.Figure) (*Result, error) {
	profiles := tracedProfiles()
	cells := make([]Cell[sim.AccessRow], len(profiles))
	for i, p := range profiles {
		cells[i] = Cell[sim.AccessRow]{
			Key: f.String() + "/" + p.Name,
			Run: func(ctx context.Context, seed uint64) (sim.AccessRow, error) {
				row, err := sim.RunFigure11(f, p, sim.AccessConfig{
					Refs: rc.Refs, Seed: seed, Buf: sim.ReplayBufFrom(ctx),
					MMU: rc.MMU(),
				})
				if err == nil {
					rc.CountRefs(row.RefAccesses)
				}
				return row, err
			},
		}
	}
	rows, err := Fan(ctx, rc, cells)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(fig11Titles[f],
		"workload", "ref misses", "linear", "forward", "hashed", "clustered")
	for _, row := range rows {
		t.Row(row.Workload, row.RefMisses,
			fmt.Sprintf("%.2f", row.AvgLines["linear"]),
			fmt.Sprintf("%.2f", row.AvgLines["forward-mapped"]),
			fmt.Sprintf("%.2f", row.AvgLines["hashed"]),
			fmt.Sprintf("%.2f", row.AvgLines["clustered"]))
	}
	return tables(t), nil
}

// --- Appendix Table 2 ---

// table2Row carries one workload's built sizes plus the closed-form
// model values the appendix predicts for them.
type table2Row struct {
	sim.SizeRow
	HashedModel    uint64
	ClusteredModel uint64
	LinearModel    uint64
}

func runTable2(ctx context.Context, rc *RunContext) (*Result, error) {
	profiles := trace.Profiles()
	pool := sim.NewTablePool()
	cells := make([]Cell[table2Row], len(profiles))
	for i, p := range profiles {
		cells[i] = Cell[table2Row]{
			Key: "table2/" + p.Name,
			Run: func(ctx context.Context, seed uint64) (table2Row, error) {
				sizes, err := sim.Figure9RowPooled(p, pool)
				if err != nil {
					return table2Row{}, err
				}
				row := table2Row{
					SizeRow:        sizes,
					HashedModel:    sim.AnalyticHashedBytes(sim.NactiveProfile(p, 1)),
					ClusteredModel: sim.AnalyticClusteredBytes(sim.NactiveProfile(p, 16), 16),
				}
				for _, s := range p.Snapshot() {
					row.LinearModel += sim.AnalyticLinearBytes(s.AllPages(), 6)
				}
				return row, nil
			},
		}
	}
	rows, err := Fan(ctx, rc, cells)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Table 2 cross-check: analytic model vs built tables (PTE bytes)",
		"workload", "hashed built", "hashed model", "clustered built", "clustered model", "linear built", "linear model")
	for _, r := range rows {
		t.Row(r.Workload,
			r.Bytes["hashed"], r.HashedModel,
			r.Bytes["clustered"], r.ClusteredModel,
			r.Bytes["linear-6level"], r.LinearModel)
	}
	return tables(t), nil
}

// --- §6.3 line-size sensitivity ---

func runLines(ctx context.Context, rc *RunContext) (*Result, error) {
	rows, err := Fan(ctx, rc, []Cell[[]sim.LineSizeRow]{{
		Key: "lines/sweep",
		Run: func(ctx context.Context, seed uint64) ([]sim.LineSizeRow, error) {
			return sim.LineSizeSweep([]int{256, 128, 64}, 16), nil
		},
	}})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("§6.3 cache-line-size sensitivity: clustered PTE (factor 16) line crossings",
		"line size", "avg lines/lookup", "extra vs 1.0", "paper")
	paper := map[int]string{256: "+0.000", 128: "+0.125", 64: "+0.625"}
	for _, r := range rows[0] {
		t.Row(r.LineSize,
			fmt.Sprintf("%.3f", r.AvgLines),
			fmt.Sprintf("+%.3f", r.ExtraVsOneLine),
			paper[r.LineSize])
	}
	return tables(t), nil
}

// --- §3/§6.3/§7 sweeps ---

func runSweeps(ctx context.Context, rc *RunContext) (*Result, error) {
	var out []*report.Table

	// Subblock-factor space/time tradeoff (gcc).
	subRows, err := Fan(ctx, rc, []Cell[[]sim.SubblockRow]{{
		Key: "sweeps/subblock/gcc",
		Run: func(ctx context.Context, seed uint64) ([]sim.SubblockRow, error) {
			return sim.SubblockSweep(mustProfile("gcc"), []int{4, 8, 16, 32})
		},
	}})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("§3/§6.3 subblock-factor space/time tradeoff (gcc)",
		"factor", "PTE bytes", "vs hashed", "extra lines (256B)")
	for _, r := range subRows[0] {
		t.Row(r.Factor, r.PTEBytes, norm(r.NormalizedSize), fmt.Sprintf("+%.3f", r.ExtraLines))
	}
	out = append(out, t)

	// Load-factor sweep (ML).
	lfRows, err := Fan(ctx, rc, []Cell[[]sim.LoadFactorRow]{{
		Key: "sweeps/loadfactor/ML",
		Run: func(ctx context.Context, seed uint64) ([]sim.LoadFactorRow, error) {
			return sim.LoadFactorSweep(mustProfile("ML"), []int{64, 256, 1024, 4096})
		},
	}})
	if err != nil {
		return nil, err
	}
	t = report.NewTable("§7 load-factor sweep (ML, clustered): measured chain search vs Knuth 1+α/2",
		"buckets", "alpha", "measured nodes", "1+alpha/2")
	for _, r := range lfRows[0] {
		t.Row(r.Buckets, fmt.Sprintf("%.3f", r.Alpha),
			fmt.Sprintf("%.3f", r.Measured), fmt.Sprintf("%.3f", r.Knuth))
	}
	out = append(out, t)

	// Multiple-page-table probe order.
	soNames := []string{"coral", "fftpde", "gcc"}
	soCells := make([]Cell[sim.SearchOrderRow], len(soNames))
	for i, name := range soNames {
		soCells[i] = Cell[sim.SearchOrderRow]{
			Key: "sweeps/search-order/" + name,
			Run: func(ctx context.Context, seed uint64) (sim.SearchOrderRow, error) {
				rc.CountRefs(uint64(rc.Refs))
				return sim.SearchOrderSweep(mustProfile(name), sim.AccessConfig{Refs: rc.Refs, Seed: seed, Buf: sim.ReplayBufFrom(ctx)})
			},
		}
	}
	soRows, err := Fan(ctx, rc, soCells)
	if err != nil {
		return nil, err
	}
	t = report.NewTable("§6.3 multiple-page-table probe order (partial-subblock TLB)",
		"workload", "4KB-first lines", "64KB-first lines")
	for _, row := range soRows {
		t.Row(row.Workload,
			fmt.Sprintf("%.2f", row.BaseFirstLines),
			fmt.Sprintf("%.2f", row.SuperFirstLines))
	}
	out = append(out, t)

	// Guarded page tables.
	gNames := []string{"gcc", "compress", "ML"}
	gCells := make([]Cell[sim.GuardedRow], len(gNames))
	for i, name := range gNames {
		gCells[i] = Cell[sim.GuardedRow]{
			Key: "sweeps/guarded/" + name,
			Run: func(ctx context.Context, seed uint64) (sim.GuardedRow, error) {
				return sim.GuardedSweep(mustProfile(name))
			},
		}
	}
	gRows, err := Fan(ctx, rc, gCells)
	if err != nil {
		return nil, err
	}
	t = report.NewTable("§2 guarded page tables: path-compressed forward-mapped walks (avg lines per lookup)",
		"workload", "fixed 7-level", "guarded", "guarded max depth", "hashed")
	for _, row := range gRows {
		t.Row(row.Workload,
			fmt.Sprintf("%.2f", row.FixedLines),
			fmt.Sprintf("%.2f", row.GuardedLines),
			row.GuardedMax,
			fmt.Sprintf("%.2f", row.HashedLines))
	}
	out = append(out, t)

	// Superpage-index hashing.
	spNames := []string{"coral", "pthor", "gcc"}
	spCells := make([]Cell[sim.SPIndexRow], len(spNames))
	for i, name := range spNames {
		spCells[i] = Cell[sim.SPIndexRow]{
			Key: "sweeps/sp-index/" + name,
			Run: func(ctx context.Context, seed uint64) (sim.SPIndexRow, error) {
				rc.CountRefs(uint64(rc.Refs))
				return sim.SPIndexSweep(mustProfile(name), sim.AccessConfig{Refs: rc.Refs, Seed: seed, Buf: sim.ReplayBufFrom(ctx)})
			},
		}
	}
	spRows, err := Fan(ctx, rc, spCells)
	if err != nil {
		return nil, err
	}
	t = report.NewTable("§4.2 superpage PTE storage in hash-based tables (superpage TLB, lines/miss)",
		"workload", "multi-table (4KB first)", "superpage-index", "sp-index max chain", "clustered")
	for _, row := range spRows {
		t.Row(row.Workload,
			fmt.Sprintf("%.2f", row.MultiLines),
			fmt.Sprintf("%.2f", row.SPIndexLines),
			row.SPIndexMaxChain,
			fmt.Sprintf("%.2f", row.ClusteredLines))
	}
	out = append(out, t)

	// Packed 16-byte hashed PTEs.
	pkNames := []string{"coral", "ML", "gcc"}
	pkCells := make([]Cell[sim.PackedRow], len(pkNames))
	for i, name := range pkNames {
		pkCells[i] = Cell[sim.PackedRow]{
			Key: "sweeps/packed/" + name,
			Run: func(ctx context.Context, seed uint64) (sim.PackedRow, error) {
				return sim.PackedSweep(mustProfile(name))
			},
		}
	}
	pkRows, err := Fan(ctx, rc, pkCells)
	if err != nil {
		return nil, err
	}
	t = report.NewTable("§7 packed 16-byte hashed PTEs (−33% size, unchanged lines/miss)",
		"workload", "plain bytes", "packed bytes", "ratio")
	for _, row := range pkRows {
		t.Row(row.Workload, row.PlainBytes, row.PackedBytes,
			fmt.Sprintf("%.3f", float64(row.PackedBytes)/float64(row.PlainBytes)))
	}
	out = append(out, t)

	return &Result{Tables: out}, nil
}

// --- §6.1 residency ablation ---

func runResidency(ctx context.Context, rc *RunContext) (*Result, error) {
	names := []string{"coral", "ML", "pthor"}
	cells := make([]Cell[sim.ResidencyRow], len(names))
	for i, name := range names {
		cells[i] = Cell[sim.ResidencyRow]{
			Key: "residency/" + name,
			Run: func(ctx context.Context, seed uint64) (sim.ResidencyRow, error) {
				rc.CountRefs(uint64(rc.Refs / 2))
				return sim.RunResidency(mustProfile(name), sim.ResidencyConfig{
					Refs: rc.Refs / 2, CacheBytes: 128 << 10, Seed: seed,
					Buf: sim.ReplayBufFrom(ctx),
				})
			},
		}
	}
	rows, err := Fan(ctx, rc, cells)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("§6.1 ablation: page-table lines touched vs actually missing in a 128KB L2 (single-page-size TLB)",
		"workload", "hashed touched", "hashed missed", "clustered touched", "clustered missed", "linear missed")
	for _, row := range rows {
		t.Row(row.Workload,
			fmt.Sprintf("%.2f", row.TouchedPerMiss["hashed"]),
			fmt.Sprintf("%.2f", row.MissedPerMiss["hashed"]),
			fmt.Sprintf("%.2f", row.TouchedPerMiss["clustered"]),
			fmt.Sprintf("%.2f", row.MissedPerMiss["clustered"]),
			fmt.Sprintf("%.2f", row.MissedPerMiss["linear"]))
	}
	return tables(t), nil
}

// --- §7 software TLB ---

func runSwTLB(ctx context.Context, rc *RunContext) (*Result, error) {
	type pair struct{ table, workload string }
	var pairs []pair
	for _, tbl := range []string{"forward-mapped", "hashed", "clustered"} {
		for _, name := range []string{"spice", "gcc"} {
			pairs = append(pairs, pair{tbl, name})
		}
	}
	cells := make([]Cell[sim.SwTLBRow], len(pairs))
	for i, pr := range pairs {
		cells[i] = Cell[sim.SwTLBRow]{
			Key: "swtlb/" + pr.table + "/" + pr.workload,
			Run: func(ctx context.Context, seed uint64) (sim.SwTLBRow, error) {
				rc.CountRefs(uint64(rc.Refs))
				return sim.SwTLBSweep(mustProfile(pr.workload), pr.table,
					sim.AccessConfig{Refs: rc.Refs, Seed: seed, Buf: sim.ReplayBufFrom(ctx)})
			},
		}
	}
	rows, err := Fan(ctx, rc, cells)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("§7 software TLB front-end (4096 entries, 2-way): lines per TLB miss with and without",
		"workload", "table", "raw lines", "swTLB lines", "swTLB hit rate")
	for _, row := range rows {
		t.Row(row.Workload, row.Table,
			fmt.Sprintf("%.2f", row.RawLines),
			fmt.Sprintf("%.2f", row.SwLines),
			fmt.Sprintf("%.2f", row.SwHitRate))
	}
	return tables(t), nil
}

// --- partitioned-TLB what-if ---

// partitionRow is one (workload, k) point of the partition experiment.
type partitionRow struct {
	Workload    string
	K           int
	Serial      uint64
	Partitioned uint64
}

// runPartition quantifies why the figure path keeps one shared TLB as
// its reference model (DESIGN.md §10): routing each ShardPlan shard's
// regions to a private TLB slice preserves aggregate capacity but not
// the shared true-LRU policy, so misses inflate whenever a region's
// working set exceeds its slice. The experiment drives the same stream
// through both organizations and reports the inflation.
func runPartition(ctx context.Context, rc *RunContext) (*Result, error) {
	type point struct {
		workload string
		k        int
	}
	var points []point
	for _, w := range []string{"gcc", "coral", "ML"} {
		for _, k := range []int{2, 4} {
			points = append(points, point{w, k})
		}
	}
	cells := make([]Cell[partitionRow], len(points))
	for i, pt := range points {
		cells[i] = Cell[partitionRow]{
			Key: fmt.Sprintf("partition/%s/k%d", pt.workload, pt.k),
			Run: func(ctx context.Context, seed uint64) (partitionRow, error) {
				refs := rc.Refs / 4 // one shared-vs-partitioned pass needs no figure-scale budget
				if refs < 1 {
					refs = 1
				}
				rc.CountRefs(uint64(refs))
				return runPartitionCell(mustProfile(pt.workload), pt.k, refs, seed)
			},
		}
	}
	rows, err := Fan(ctx, rc, cells)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("What-if: region-partitioned TLB slices vs one shared 64-entry TLB",
		"workload", "slices", "shared misses", "partitioned misses", "inflation")
	for _, row := range rows {
		t.Row(row.Workload, row.K, row.Serial, row.Partitioned,
			fmt.Sprintf("%.2fx", float64(row.Partitioned)/float64(row.Serial)))
	}
	return tables(t), nil
}

// runPartitionCell replays one workload's first process against a
// shared TLB and a ShardPlan-routed partitioned TLB.
func runPartitionCell(p trace.Profile, k, refs int, seed uint64) (partitionRow, error) {
	snap := p.ProcSnapshot(0)
	plan := trace.ShardPlan(snap, k)
	pageShard := make(map[addr.VPN]int)
	ri := 0
	for _, r := range snap.Regions {
		if len(r.Pages) == 0 || r.Spec.Weight <= 0 {
			continue // regions the generator (and ShardPlan) skip
		}
		for _, pg := range r.Pages {
			pageShard[pg] = plan[ri]
		}
		ri++
	}
	route := func(va addr.V) int { return pageShard[addr.VPNOf(va)] }

	shared := tlb.MustNew(tlb.Config{Entries: 64})
	part, err := tlb.NewPartitioned(tlb.Config{Entries: 64}, k, route)
	if err != nil {
		return partitionRow{}, err
	}
	gen := trace.NewGenerator(snap, seed)
	for i := 0; i < refs; i++ {
		va := gen.Next()
		// Only the tags matter to the miss counts: fill the base word.
		vpn := addr.VPNOf(va)
		if !shared.Access(va).Hit {
			shared.InsertWord(vpn, mmu.BaseWord())
		}
		if !part.Access(va).Hit {
			part.InsertWord(vpn, mmu.BaseWord())
		}
	}
	if shared.Stats().Misses == 0 {
		return partitionRow{}, fmt.Errorf("partition: %s: no misses to compare", p.Name)
	}
	return partitionRow{
		Workload:    p.Name,
		K:           k,
		Serial:      shared.Stats().Misses,
		Partitioned: part.Stats().Misses,
	}, nil
}

// --- §7 multiprogramming extension ---

func runMultiprog(ctx context.Context, rc *RunContext) (*Result, error) {
	configs := []struct {
		name    string
		quantum int
	}{
		{"gcc", 2000}, {"compress", 2000}, {"compress", 50},
	}
	cells := make([]Cell[sim.MultiprogramRow], len(configs))
	for i, c := range configs {
		cells[i] = Cell[sim.MultiprogramRow]{
			Key: fmt.Sprintf("multiprog/%s/q%d", c.name, c.quantum),
			Run: func(ctx context.Context, seed uint64) (sim.MultiprogramRow, error) {
				rc.CountRefs(uint64(rc.Refs / 2))
				return sim.RunMultiprogram(mustProfile(c.name), c.quantum, rc.Refs/2, seed)
			},
		}
	}
	rows, err := Fan(ctx, rc, cells)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("§7 extension: multiprogrammed TLB interference (64-entry single-page-size TLB)",
		"workload", "quantum", "isolated misses", "shared+ASID", "flush on switch")
	for _, row := range rows {
		t.Row(row.Workload, row.Quantum, row.IsolatedMisses, row.SharedASIDMisses, row.FlushMisses)
	}
	return tables(t), nil
}

// --- reproduction self-check ---

func runVerify(ctx context.Context, rc *RunContext) (*Result, error) {
	claimSets, err := Fan(ctx, rc, []Cell[[]sim.Claim]{{
		Key: "verify/claims",
		Run: func(ctx context.Context, seed uint64) ([]sim.Claim, error) {
			// VerifyClaims pins its own seed: the claims are assertions
			// about the calibrated base-case traces, not about an
			// arbitrary stream.
			rc.CountRefs(uint64(rc.Refs / 2))
			return sim.VerifyClaims(rc.Refs / 2)
		},
	}})
	if err != nil {
		return nil, err
	}
	claims := claimSets[0]
	t := report.NewTable("Reproduction self-check: the paper's headline claims as executable assertions",
		"claim", "verdict", "measured", "statement")
	failed := 0
	for _, c := range claims {
		verdict := "PASS"
		if !c.Pass {
			verdict = "FAIL"
			failed++
		}
		t.Row(c.ID, verdict, c.Detail, c.Text)
	}
	res := tables(t)
	if failed > 0 {
		// Return the table too, so the failing claims still render.
		return res, fmt.Errorf("%d of %d claims failed", failed, len(claims))
	}
	res.Notes = []string{fmt.Sprintf("all %d claims reproduced", len(claims))}
	return res, nil
}

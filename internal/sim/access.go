package sim

import (
	"fmt"

	"clusterpt/internal/addr"
	"clusterpt/internal/linear"
	"clusterpt/internal/memcost"
	"clusterpt/internal/mmu/walkcache"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/swtlb"
	"clusterpt/internal/tlb"
	"clusterpt/internal/trace"
)

// Figure identifies one of the paper's access-time graphs.
type Figure int

// Access-time figures.
const (
	// Fig11a: single-page-size TLB.
	Fig11a Figure = iota
	// Fig11b: superpage TLB (4KB + 64KB).
	Fig11b
	// Fig11c: partial-subblock TLB (factor 16).
	Fig11c
	// Fig11d: complete-subblock TLB (factor 16) with subblock prefetch.
	Fig11d
)

// String names the figure.
func (f Figure) String() string {
	return [...]string{"fig11a", "fig11b", "fig11c", "fig11d"}[f]
}

// TLBKind returns the TLB organization the figure assumes.
func (f Figure) TLBKind() tlb.Kind {
	return [...]tlb.Kind{tlb.SinglePageSize, tlb.Superpage, tlb.PartialSubblock, tlb.CompleteSubblock}[f]
}

// Mode returns the PTE formats the page tables use in the figure. §6.1:
// the complete-subblock TLB needs no special page-table support, so
// Fig11d uses base PTEs.
func (f Figure) Mode() PTEMode {
	return [...]PTEMode{BaseOnly, WithSuperpages, WithPartial, BaseOnly}[f]
}

// Variants returns the page-table organizations the figure compares.
// Linear page tables always appear with the reserved-TLB accounting;
// hashed page tables appear as multiple page tables (4KB searched first)
// when superpage or partial-subblock PTEs are in play (§6.1).
func (f Figure) Variants() []TableVariant {
	lin := TableVariant{Name: "linear", New: variantLinear1, ReservedTLB: 8}
	fwd := TableVariant{Name: "forward-mapped", New: variantForward}
	clu := TableVariant{Name: "clustered", New: variantClustered}
	switch f {
	case Fig11b, Fig11c:
		return []TableVariant{lin, fwd, {Name: "hashed", New: variantHashedMulti}, clu}
	default:
		return []TableVariant{lin, fwd, {Name: "hashed", New: variantHashed}, clu}
	}
}

// kernel names what the TLB-miss replay kernel runs over a process:
// fig supplies the TLB kind, the PTE mode and the Fig11d prefetch;
// variants are the organizations walked, at most maxVariants, and every
// walk cost and line count is indexed by their position; refill is the
// position of the non-reserved variant whose entries refill the
// reference TLB (the canonical build). Figure 11, table1, the probe-order
// and superpage-index sweeps, residency and swtlb are each one kernel.
type kernel struct {
	fig      Figure
	variants []TableVariant
	refill   int
}

// figureKernel is Figure f's kernel: its variants, refilled from the
// clustered table, which Variants lists last.
func figureKernel(f Figure) kernel {
	vs := f.Variants()
	return kernel{fig: f, variants: vs, refill: len(vs) - 1}
}

// AccessConfig parameterizes an access-time run.
type AccessConfig struct {
	// Refs is the workload's total reference count (default 400k),
	// split across processes by RefShare.
	Refs int
	// Entries is the TLB size (default 64, §6.1).
	Entries int
	// LineModel is the cache-line geometry (default 256-byte lines).
	LineModel memcost.Model
	// Seed perturbs the reference streams.
	Seed uint64
	// Buf, when set, is the reusable chunk buffer replay fills; the
	// engine passes each worker's. Nil allocates per run.
	Buf *ReplayBuf
	// MMU selects the translation hierarchy modelled around each TLB
	// (L2 TLB, page-walk cache). The zero value is the paper's flat
	// single-level hierarchy and reproduces the pre-hierarchy
	// simulator byte for byte. RunFigure11Pipelines ignores it in favor
	// of its pipeline list.
	MMU MMUConfig
}

func (c *AccessConfig) fill() {
	if c.Refs == 0 {
		c.Refs = 400_000
	}
	if c.Entries == 0 {
		c.Entries = 64
	}
	if c.LineModel.LineSize == 0 {
		c.LineModel = memcost.NewModel(0)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// AccessRow is one workload's bars in one Figure 11 graph.
type AccessRow struct {
	Workload string
	Figure   Figure
	// RefMisses is the miss count of the 64-entry TLB of the figure's
	// kind — the normalization denominator (§6.1).
	RefMisses uint64
	// RefAccesses is the reference count simulated.
	RefAccesses uint64
	// AvgLines maps variant name to average cache lines accessed per
	// (64-entry-TLB) miss.
	AvgLines map[string]float64
	// LinearNested counts nested TLB misses on the linear page table's
	// reserved entries. §6.1 reports the paper's 32-bit workloads never
	// take a nested trap; ours do occasionally when a footprint needs
	// more page-table pages than the eight reserved entries cover.
	LinearNested uint64
}

// RunFigure11 computes one workload's row of a Figure 11 graph under
// cfg.MMU: the one-pipeline case of RunFigure11Pipelines.
func RunFigure11(f Figure, p trace.Profile, cfg AccessConfig) (AccessRow, error) {
	rows, err := RunFigure11Pipelines(f, p, cfg, []MMUConfig{cfg.MMU})
	if len(rows) == 0 {
		return AccessRow{Workload: p.Name, Figure: f}, err
	}
	return rows[0], err
}

// RunFigure11Pipelines computes one workload's Figure 11 row under each
// translation pipeline in mmus (cfg.MMU is ignored), index-aligned with
// mmus. Every pipeline sees the same reference stream through one
// shared L1 stage — the reference TLB and each linear variant's main
// TLB — and each variant's walk is done once per L1 miss; the L2
// probes run once per L2 geometry, and only the page-walk caches and
// the line charges run per pipeline. Each row equals the RunFigure11
// row for that pipeline alone.
//
// Sharing the L1 is exact only while its refill does not depend on the
// pipeline: an L2 hit refills the L1 with mmu.BaseWord, a walk with the
// canonical word, and the two carry the same tag only under a
// single-page-size TLB over base PTEs (Fig11a). Any other figure with
// more than one pipeline is an error.
func RunFigure11Pipelines(f Figure, p trace.Profile, cfg AccessConfig, mmus []MMUConfig) ([]AccessRow, error) {
	if err := checkPipelines(f, mmus); err != nil {
		return nil, err
	}
	cfg.fill()
	k := figureKernel(f)
	res, err := replayWorkload(k, p, cfg, mmus, nil)
	rows := make([]AccessRow, len(mmus))
	for t := range rows {
		rows[t] = AccessRow{Workload: p.Name, Figure: f, AvgLines: map[string]float64{},
			RefMisses: res.misses, RefAccesses: res.accesses, LinearNested: res.nested[t]}
	}
	if err != nil {
		return rows, err
	}
	if res.misses == 0 {
		return rows, fmt.Errorf("sim: %s: no TLB misses", p.Name)
	}
	// Names enter the rows only here, at report time.
	for t := range rows {
		for i, v := range k.variants {
			rows[t].AvgLines[v.Name] = float64(res.lines[t][i]) / float64(res.misses)
		}
	}
	return rows, nil
}

// checkPipelines rejects pipeline lists the shared L1 stage cannot
// serve exactly, and lists longer than the miss record can encode.
func checkPipelines(f Figure, mmus []MMUConfig) error {
	switch {
	case len(mmus) == 0:
		return fmt.Errorf("sim: %v: no MMU pipelines", f)
	case len(mmus) > maxTails:
		return fmt.Errorf("sim: %v: %d MMU pipelines, at most %d share one replay", f, len(mmus), maxTails)
	case len(mmus) > 1 && (f.TLBKind() != tlb.SinglePageSize || f.Mode() != BaseOnly):
		return fmt.Errorf("sim: %v: the L1 refill depends on the MMU pipeline, so %d pipelines cannot share one replay", f, len(mmus))
	}
	return nil
}

// figureState is one process's kernel state, split into the shared L1
// stage — the variant page tables, the reference TLB and each linear
// variant's main TLB — and one tail per MMU pipeline.
type figureState struct {
	kernel
	builds []*Build // index-aligned with variants
	refTLB *tlb.TLB
	lins   []*linState
	tails  []*tailState

	// pwcIdx is the single tree-walked variant whose upper levels a
	// page-walk cache elides, and pwcUpper its upper-walk line count;
	// -1 when no pipeline has a PWC.
	pwcIdx   int
	pwcUpper int
}

// tailState is one MMU pipeline's levels below the shared L1: the
// unified L2 TLB shared by the non-reserved-TLB variants (nil when
// flat) — hit/miss outcomes are variant-independent, so one level models
// all of them — the tree-walked variant's page-walk cache (nil without
// one), and each linear variant's levels. refStage evolves l2 and pwc,
// linLane the lins.
//
// Pipelines with the same L2 geometry share one L2 state — l2 and every
// lins[li].l2 and lins[li].pt — which only the first of them, the one
// whose l2Of is its own index, probes and fills (stages.go says why
// that is exact).
type tailState struct {
	l2   *swtlb.Cache
	l2Of int
	pwc  *walkcache.PWC
	lins []linTail // index-aligned with figureState.lins
}

// linState is the linear page table's shared L1 stage (§6.1): a main TLB
// shrunk by the reserved entries. The reserved entries themselves live
// per pipeline (linTail), because a pipeline whose L2 hits never reads
// the PTE array and so never translates its page.
type linState struct {
	main *tlb.TLB
	// idx is the linear variant's position: the line count it charges.
	idx int
	// upper is the nested-walk line cost. UpperWalkCost is a constant of
	// the table's configuration (levels and upper-walk mode), so it is
	// hoisted out of the loop entirely.
	upper uint32
}

// linTail is one pipeline's state for one linear variant: the small TLB
// caching mappings to the page-table pages, and under a multi-level MMU
// an L2 TLB and nested-walk cache of its own — the linear main-TLB miss
// stream differs from the reference TLB's, so the tail's l2 and pwc
// cannot serve it. pt and l2 are shared like tailState.l2.
type linTail struct {
	pt  *tlb.TLB
	l2  *swtlb.Cache
	pwc *walkcache.PWC
}

// newFigureState builds the kernel's page tables and TLBs for one
// process snapshot, with one tail per entry of mmus.
func newFigureState(k kernel, snap trace.ProcessSnapshot, cfg AccessConfig, mmus []MMUConfig) (*figureState, error) {
	st := &figureState{kernel: k, pwcIdx: -1}
	mode := k.fig.Mode()

	// builds is index-aligned with variants; the replay loop never keys
	// by name.
	st.builds = make([]*Build, len(st.variants))
	for i, v := range st.variants {
		b, err := BuildProcess(v, mode, snap, cfg.LineModel)
		if err != nil {
			return nil, err
		}
		st.builds[i] = b
	}

	kind := k.fig.TLBKind()
	var err error
	if st.refTLB, err = tlb.New(tlb.Config{Kind: kind, Entries: cfg.Entries}); err != nil {
		return nil, err
	}

	anyPWC := false
	for _, m := range mmus {
		anyPWC = anyPWC || m.PWC
	}
	var pwcTable pagetable.UpperWalker
	if anyPWC {
		for i, v := range st.variants {
			if v.ReservedTLB > 0 {
				continue
			}
			uw, ok := st.builds[i].Table.(pagetable.UpperWalker)
			if !ok {
				continue
			}
			if st.pwcIdx >= 0 {
				// The miss records carry exactly one walk-cache hit bit
				// per pipeline, so one tree-walked variant per figure.
				return nil, fmt.Errorf("sim: multiple walk-cached variants (%q, %q)",
					st.variants[st.pwcIdx].Name, v.Name)
			}
			pwcTable = uw
			st.pwcIdx = i
			st.pwcUpper = uw.UpperWalkCost(0).Lines
		}
	}

	// Linear page tables run their own, smaller TLB plus the reserved
	// page-table-mapping entries (§6.1).
	var reserved []int
	var linTables []*linear.Table
	for i, v := range st.variants {
		if v.ReservedTLB == 0 {
			continue
		}
		lt, ok := st.builds[i].Table.(*linear.Table)
		if !ok {
			return nil, fmt.Errorf("reserved-TLB variant %q is not linear", v.Name)
		}
		if cfg.Entries <= v.ReservedTLB {
			// tlb.Config would silently turn a zero-entry main TLB into
			// its 64-entry default.
			return nil, fmt.Errorf("sim: %d TLB entries leave %q no main TLB beside its %d reserved entries",
				cfg.Entries, v.Name, v.ReservedTLB)
		}
		main, err := tlb.New(tlb.Config{Kind: kind, Entries: cfg.Entries - v.ReservedTLB})
		if err != nil {
			return nil, err
		}
		st.lins = append(st.lins, &linState{
			main:  main,
			idx:   i,
			upper: uint32(lt.UpperWalkCost(0).Lines),
		})
		reserved = append(reserved, v.ReservedTLB)
		linTables = append(linTables, lt)
	}

	owners := map[[2]int]*tailState{} // by L2 geometry
	for t, m := range mmus {
		tl := &tailState{l2Of: t, lins: make([]linTail, len(st.lins))}
		g := m.l2Geometry()
		if o, ok := owners[g]; ok {
			tl.l2, tl.l2Of = o.l2, o.l2Of
			for li := range st.lins {
				tl.lins[li].l2, tl.lins[li].pt = o.lins[li].l2, o.lins[li].pt
			}
		} else {
			owners[g] = tl
			tl.l2 = m.newL2(cfg.LineModel)
			for li := range st.lins {
				lt := &tl.lins[li]
				if lt.pt, err = tlb.New(tlb.Config{Kind: tlb.SinglePageSize, Entries: reserved[li]}); err != nil {
					return nil, err
				}
				lt.l2 = m.newL2(cfg.LineModel)
			}
		}
		if m.PWC && pwcTable != nil {
			tl.pwc = m.newPWC(pwcTable)
		}
		for li := range st.lins {
			if m.PWC {
				tl.lins[li].pwc = m.newPWC(linTables[li])
			}
		}
		st.tails = append(st.tails, tl)
	}
	return st, nil
}

// procResult is a kernel replay's totals: the shared L1 miss count, the
// references replayed, and each pipeline's line totals (by variant
// position) and nested linear misses, index-aligned with the pipelines.
type procResult struct {
	misses   uint64
	accesses uint64
	lines    []lineCounts
	nested   []uint64
}

// missHook observes one reference-TLB miss after the kernel has charged
// it: refs counts the process's references replayed so far, this one
// included, and c holds every variant's walk cost for the miss.
type missHook func(refs int, va addr.V, c *walkCost) error

// replayWorkload runs kernel k over each of p's processes that gets a
// share of cfg.Refs, under every pipeline in mmus, and sums the
// replays. Each process first builds its tables and walk-cost table,
// walking each mapped page once per variant, then replays its trace
// over them (replayProcess). setup, when non-nil, sees each process's
// state (pi indexes p.Procs) before its replay and returns the hook for
// its misses, or nil.
func replayWorkload(k kernel, p trace.Profile, cfg AccessConfig, mmus []MMUConfig,
	setup func(pi int, st *figureState) missHook) (procResult, error) {
	sum := procResult{lines: make([]lineCounts, len(mmus)), nested: make([]uint64, len(mmus))}
	for pi, snap := range p.Snapshot() {
		refs := int(float64(cfg.Refs) * p.Procs[pi].RefShare)
		if refs == 0 {
			continue
		}
		res, err := runProcess(k, pi, snap, refs, cfg, mmus, setup)
		if err != nil {
			return sum, fmt.Errorf("sim: %s/%s: %w", p.Name, snap.Name, err)
		}
		sum.misses += res.misses
		sum.accesses += res.accesses
		for t := range mmus {
			sum.lines[t].add(&res.lines[t])
			sum.nested[t] += res.nested[t]
		}
	}
	return sum, nil
}

// runProcess is one process of replayWorkload.
func runProcess(k kernel, pi int, snap trace.ProcessSnapshot, refs int, cfg AccessConfig, mmus []MMUConfig,
	setup func(pi int, st *figureState) missHook) (procResult, error) {
	st, err := newFigureState(k, snap, cfg, mmus)
	if err != nil {
		return procResult{}, err
	}
	costs, err := newWalkTable(st, snap)
	if err != nil {
		return procResult{}, err
	}
	var onMiss missHook
	if setup != nil {
		onMiss = setup(pi, st)
	}
	return replayProcess(st, costs, snap, refs, cfg, onMiss)
}

// replayProcess runs the three replay stages (refStage, walkLane,
// linLane) inline over the process's buffered reference stream,
// refilling every TLB and charging every miss from costs, then hands
// each miss to onMiss (if set): no page table is walked.
func replayProcess(st *figureState, costs *walkTable, snap trace.ProcessSnapshot, refs int, cfg AccessConfig, onMiss missHook) (procResult, error) {
	ref := &refStage{st: st, canon: &costs.canon}
	walk := newWalkLane(st, costs)
	lin := newLinLane(st, costs)
	gen := trace.NewGenerator(snap, cfg.Seed*31+1)
	var misses uint64
	err := replay(gen, cfg.Buf, refs, func(va addr.V) error {
		if res := st.refTLB.Access(va); !res.Hit {
			misses++
			rec, err := ref.service(va, res)
			if err != nil {
				return err
			}
			if err := walk.charge(rec); err != nil {
				return err
			}
			if onMiss != nil {
				c, err := costs.cost(rec)
				if err != nil {
					return err
				}
				// The reference TLB has seen every reference so far.
				if err := onMiss(int(st.refTLB.Stats().Accesses), va, c); err != nil {
					return err
				}
			}
		}
		return lin.step(va)
	})
	if err != nil {
		return procResult{}, err
	}
	// The stages charge disjoint variants, so the merge is a plain sum.
	for t := range lin.lines {
		lin.lines[t].add(&walk.lines[t])
	}
	return procResult{misses: misses, accesses: uint64(refs), lines: lin.lines, nested: lin.nested}, nil
}

// Command ptsim runs one parameterized simulation: a chosen page table ×
// TLB organization × workload, reporting miss counts and the average
// cache lines accessed per TLB miss — a single cell of Figure 11, with
// every knob exposed. A workload's processes are themselves independent
// cells, fanned over the engine's worker pool (-workers) with per-cell
// derived seeds. Output is identical at every -workers.
//
// -replicas N (0 = off) replicates each process's table across N
// NUMA-node replicas: TLB misses round-robin over eight node-bound read
// paths, local where node < N and remote otherwise, priced by the NUMA
// line model. It replaces the walk-filter path, so it composes only
// with -mmu flat and rejects -tlb subblock.
//
// Usage:
//
//	ptsim -w coral -table clustered -tlb single
//	ptsim -w ML -table hashed -tlb subblock -refs 1000000 -entries 128
//	ptsim -w gcc -table clustered -tlb psb -line 128 -buckets 1024 -workers 4
//	ptsim -w gcc -table forward -tlb single -mmu l2+pwc
//	ptsim -w gcc -table forward -tlb single -replicas 8
//	ptsim -w gcc -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"

	"clusterpt/internal/addr"
	"clusterpt/internal/core"
	"clusterpt/internal/engine"
	"clusterpt/internal/forward"
	"clusterpt/internal/hashed"
	"clusterpt/internal/linear"
	"clusterpt/internal/memcost"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
	svc "clusterpt/internal/service"
	"clusterpt/internal/sim"
	"clusterpt/internal/swtlb"
	"clusterpt/internal/tlb"
	"clusterpt/internal/trace"
)

var (
	workload  = flag.String("w", "coral", "workload profile")
	tableName = flag.String("table", "clustered", "page table: clustered|hashed|hashed-multi|hashed-spindex|linear|forward|swtlb-clustered")
	tlbName   = flag.String("tlb", "single", "TLB: single|superpage|psb|subblock")
	refs      = flag.Int("refs", 400_000, "trace references")
	entries   = flag.Int("entries", 64, "TLB entries")
	lineSize  = flag.Int("line", 256, "cache line size")
	buckets   = flag.Int("buckets", 4096, "hash buckets")
	sbf       = flag.Int("sbf", 16, "subblock factor")
	seed      = flag.Uint64("seed", 1, "base trace seed")
	workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "max concurrent process cells")
	mmuSpec   = flag.String("mmu", "flat", "translation hierarchy around the simulated TLB: flat, l2, or l2+pwc")
	replicas  = flag.Int("replicas", 0, "replicate the page table across N NUMA-node replicas (0 = off): TLB misses are served through node-bound replicated read paths and priced by the NUMA line model")
	cpuProf   = flag.String("cpuprofile", "", "write a CPU profile (labelled by cell) to this file")
	memProf   = flag.String("memprofile", "", "write a heap profile to this file when the run ends")
)

func main() {
	flag.Parse()
	if err := checkFlags(); err != nil {
		fmt.Fprintf(os.Stderr, "ptsim: %v\n", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := runProfiled(ctx, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "ptsim: %v\n", err)
		os.Exit(1)
	}
}

// runProfiled is run under the -cpuprofile and -memprofile flags.
func runProfiled(ctx context.Context, w io.Writer) error {
	return engine.WithProfiles(*cpuProf, *memProf, func() error { return run(ctx, w) })
}

func tlbKind() (tlb.Kind, sim.PTEMode, error) {
	switch *tlbName {
	case "single":
		return tlb.SinglePageSize, sim.BaseOnly, nil
	case "superpage":
		return tlb.Superpage, sim.WithSuperpages, nil
	case "psb":
		return tlb.PartialSubblock, sim.WithPartial, nil
	case "subblock":
		return tlb.CompleteSubblock, sim.BaseOnly, nil
	}
	return 0, 0, fmt.Errorf("unknown TLB %q", *tlbName)
}

func newTable(m memcost.Model) (pagetable.PageTable, error) {
	switch *tableName {
	case "clustered":
		return core.New(core.Config{SubblockFactor: *sbf, Buckets: *buckets, CostModel: m})
	case "hashed":
		return hashed.New(hashed.Config{Buckets: *buckets, CostModel: m})
	case "hashed-multi":
		return hashed.NewMulti(hashed.Config{Buckets: *buckets, CostModel: m}, 4, hashed.BaseFirst)
	case "hashed-spindex":
		return hashed.NewSPIndex(hashed.Config{Buckets: *buckets, CostModel: m}, 4)
	case "linear":
		return linear.New(linear.Config{OneLevel: true, CostModel: m})
	case "forward":
		return forward.New(forward.Config{CostModel: m})
	case "swtlb-clustered":
		backing, err := core.New(core.Config{SubblockFactor: *sbf, Buckets: *buckets, CostModel: m})
		if err != nil {
			return nil, err
		}
		return swtlb.New(swtlb.Config{CostModel: m}, backing)
	}
	return nil, fmt.Errorf("unknown table %q", *tableName)
}

// procResult is one process cell's contribution: its summary line plus
// the counters that fold into the workload totals.
type procResult struct {
	info     string
	lines    uint64
	misses   uint64
	accesses uint64
	// Replicated-service counters, populated only under -replicas:
	// service-cache hits among the misses served, and the NUMA-priced
	// walk lines split by locality (already folded into lines).
	svcHits     uint64
	localLines  uint64
	remoteLines uint64
}

// simProcess drives one process's trace — one cell of the run.
func simProcess(snap trace.ProcessSnapshot, n int, kind tlb.Kind, mode sim.PTEMode,
	m memcost.Model, mcfg sim.MMUConfig, cellSeed uint64, workloadName string) (procResult, error) {

	var res procResult
	pt, err := newTable(m)
	if err != nil {
		return res, err
	}
	v := sim.TableVariant{Name: *tableName, New: func(memcost.Model) pagetable.PageTable { return pt }}
	build, err := sim.BuildProcess(v, mode, snap, m)
	if err != nil {
		return res, err
	}
	// The hierarchy wraps the bare TLB with whatever -mmu selected; the
	// default flat pipeline delegates every call to it verbatim, so the
	// default output is byte-identical to the pre-hierarchy simulator.
	// Misses stay the L1 miss count (an L2 hit is still an L1 miss) so
	// the avg-lines denominator is comparable across modes; the L2 probe
	// lines accumulate in the hierarchy's probe meter and fold in below.
	t, err := tlb.New(tlb.Config{Kind: kind, Entries: *entries})
	if err != nil {
		return res, err
	}
	h := mcfg.BuildHierarchy(t, build.Table, m)

	// Under -replicas, misses route through node-bound read paths of a
	// replicated service whose replicas are built from the identical
	// snapshot; the walk bill comes from the NUMA-priced NodeCost meters
	// instead of the raw per-walk lines.
	var nodes []*svc.Node
	if *replicas > 0 {
		rep, err := svc.New(svc.Config{Stripes: 32, CacheSlots: 1024, Replicas: *replicas},
			func(int) (pagetable.PageTable, error) {
				rt, err := newTable(m)
				if err != nil {
					return nil, err
				}
				rv := sim.TableVariant{Name: *tableName, New: func(memcost.Model) pagetable.PageTable { return rt }}
				rb, err := sim.BuildProcess(rv, mode, snap, m)
				if err != nil {
					return nil, err
				}
				return rb.Table, nil
			})
		if err != nil {
			return res, err
		}
		for i := 0; i < rep.Nodes(); i++ {
			nodes = append(nodes, rep.Node(i))
		}
	}
	var served uint64
	var block []pte.Entry // prefetch gather buffer, reused for the whole cell
	service := func(va addr.V) error {
		r := h.Access(va)
		if r.Hit {
			return nil
		}
		if nodes != nil {
			// Round-robin the miss stream across the modeled nodes: the
			// reader population spreads over the machine, each walk local
			// or remote by its node's position against the replica set.
			node := nodes[served%uint64(len(nodes))]
			served++
			e, ok := node.Lookup(va)
			if !ok {
				return fmt.Errorf("lost %v", va)
			}
			h.Insert(e)
			return nil
		}
		if kind == tlb.CompleteSubblock && !r.SubblockMiss {
			br, ok := build.Table.(pagetable.BlockReader)
			if !ok {
				return fmt.Errorf("table %q cannot prefetch blocks", *tableName)
			}
			vpbn, _ := addr.BlockSplit(addr.VPNOf(va), 4)
			var cost pagetable.WalkCost
			var found bool
			block, cost, found = br.AppendBlock(block[:0], vpbn, 4)
			if !found {
				return fmt.Errorf("lost block %#x", uint64(vpbn))
			}
			cost = h.FilterWalk(addr.VPNOf(va), cost)
			res.lines += uint64(cost.Lines)
			h.InsertBlock(vpbn, block)
			return nil
		}
		e, cost, found := build.Table.Lookup(va)
		if !found {
			return fmt.Errorf("lost %v", va)
		}
		cost = h.FilterWalk(addr.VPNOf(va), cost)
		res.lines += uint64(cost.Lines)
		h.Insert(e)
		return nil
	}
	gen := trace.NewGenerator(snap, cellSeed)
	for i := 0; i < n; i++ {
		if err := service(gen.Next()); err != nil {
			return res, err
		}
	}
	res.misses = t.Stats().Misses
	for _, node := range nodes {
		c := node.Cost()
		res.svcHits += c.Hits
		res.localLines += c.LocalLines
		res.remoteLines += c.RemoteLines
	}
	res.lines += res.localLines + res.remoteLines
	res.lines += uint64(h.ProbeCost().Lines)
	res.accesses = uint64(n)
	sz := build.Table.Size()
	res.info = fmt.Sprintf("%s/%s: table=%s PTE bytes=%d nodes=%d mappings=%d",
		workloadName, snap.Name, build.Table.Name(), sz.PTEBytes, sz.Nodes, sz.Mappings)
	return res, nil
}

// checkFlags rejects numeric flag values the simulator cannot honor.
func checkFlags() error {
	switch {
	case *entries < 1:
		return fmt.Errorf("-entries %d: need at least one TLB entry", *entries)
	case *entries > tlb.MaxEntries:
		return fmt.Errorf("-entries %d: at most %d TLB entries", *entries, tlb.MaxEntries)
	case *lineSize < 8 || *lineSize&(*lineSize-1) != 0:
		return fmt.Errorf("-line %d: need a power of two of at least 8 bytes", *lineSize)
	case *refs < 1:
		return fmt.Errorf("-refs %d: need at least one reference", *refs)
	case *seed == 0:
		// engine.Options would take 0 as its default seed, 1.
		return fmt.Errorf("-seed 0: need a nonzero seed (0 would silently run seed 1)")
	case *buckets < 1 || !addr.IsPow2(uint64(*buckets)):
		// core.New and hashed.New would take 0 as their default.
		return fmt.Errorf("-buckets %d: need a power of two", *buckets)
	case *sbf < core.MinSubblockFactor || *sbf > core.MaxSubblockFactor || !addr.IsPow2(uint64(*sbf)):
		return fmt.Errorf("-sbf %d: need a power of two in [%d, %d]", *sbf, core.MinSubblockFactor, core.MaxSubblockFactor)
	case *workers < 0:
		return fmt.Errorf("-workers %d: must not be negative", *workers)
	case *replicas < 0:
		return fmt.Errorf("-replicas %d: must not be negative", *replicas)
	case *replicas > memcost.DefaultNodes:
		return fmt.Errorf("-replicas %d exceeds the %d-node NUMA model", *replicas, memcost.DefaultNodes)
	}
	return nil
}

// run simulates the configured cell and prints its report to w. It
// checks the flags itself, so a caller that skips main still gets the
// flag errors.
func run(ctx context.Context, w io.Writer) error {
	if err := checkFlags(); err != nil {
		return err
	}
	p, ok := trace.ProfileByName(*workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if p.SnapshotOnly {
		return fmt.Errorf("%s is snapshot-only (no reference trace)", p.Name)
	}
	kind, mode, err := tlbKind()
	if err != nil {
		return err
	}
	mcfg, err := sim.ParseMMU(*mmuSpec)
	if err != nil {
		return err
	}
	if *replicas > 0 {
		if kind == tlb.CompleteSubblock {
			return fmt.Errorf("-replicas does not compose with -tlb subblock (block prefetch bypasses the service read path)")
		}
		if !mcfg.Flat() {
			return fmt.Errorf("-replicas does not compose with -mmu %s (the replicated service read path replaces the walk filter)", mcfg)
		}
	}
	m := memcost.NewModel(*lineSize)

	var cells []engine.Cell[procResult]
	snaps := p.Snapshot()
	for pi, snap := range snaps {
		n := int(float64(*refs) * p.Procs[pi].RefShare)
		if n == 0 {
			continue
		}
		cells = append(cells, engine.Cell[procResult]{
			Key: "ptsim/" + p.Name + "/" + snap.Name,
			Run: func(ctx context.Context, cellSeed uint64) (procResult, error) {
				return simProcess(snap, n, kind, mode, m, mcfg, cellSeed, p.Name)
			},
		})
	}

	eng := engine.New(engine.Options{Refs: *refs, Seed: *seed, Workers: *workers, MMU: mcfg})
	results, err := engine.FanWith(ctx, eng, "ptsim", cells)
	if err != nil {
		return err
	}

	var totLines, totMisses, totAccesses uint64
	var totSvcHits, totLocal, totRemote uint64
	for _, r := range results {
		fmt.Fprintln(w, r.info)
		totLines += r.lines
		totMisses += r.misses
		totAccesses += r.accesses
		totSvcHits += r.svcHits
		totLocal += r.localLines
		totRemote += r.remoteLines
	}
	// The mmu field is appended only for non-flat pipelines, so the
	// default summary line stays byte-identical to earlier releases.
	mmuNote := ""
	if !mcfg.Flat() {
		mmuNote = fmt.Sprintf(" mmu=%s", mcfg)
	}
	fmt.Fprintf(w, "\nworkload=%s table=%s tlb=%s entries=%d line=%d workers=%d%s\n",
		p.Name, *tableName, *tlbName, *entries, *lineSize, *workers, mmuNote)
	fmt.Fprintf(w, "accesses=%d misses=%d miss-ratio=%.5f\n",
		totAccesses, totMisses, float64(totMisses)/float64(totAccesses))
	if totMisses > 0 {
		fmt.Fprintf(w, "avg cache lines / miss = %.3f\n", float64(totLines)/float64(totMisses))
	}
	// The replica summary is appended only under -replicas, so the
	// default output stays byte-identical to earlier releases.
	if *replicas > 0 {
		fmt.Fprintf(w, "replicas=%d nodes=%d svc-cache-hits=%d local-lines=%d remote-lines=%d\n",
			*replicas, memcost.DefaultNodes, totSvcHits, totLocal, totRemote)
	}
	return nil
}

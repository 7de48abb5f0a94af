package bench

import (
	"fmt"

	"clusterpt/internal/addr"
	"clusterpt/internal/linear"
	"clusterpt/internal/memcost"
	"clusterpt/internal/mmu"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/sim"
	"clusterpt/internal/tlb"
	"clusterpt/internal/trace"
)

// The traced Figure 11 replay re-derives sim.RunFigure11 from public
// calls only, so every layer can be timed from outside: per 4096-
// reference chunk, the generator fills the chunk, a driver pass runs the
// reference TLB (through the configured mmu.Hierarchy) and refills it
// from the clustered table, each non-linear organization walks the
// chunk's misses in one pass, and the linear organization replays the
// chunk through its own TLB pair. The passes are an exact functional
// decomposition of the interleaved replay — walks never change TLB state
// and the walk cache sees misses in stream order — so the counts must
// equal RunFigure11's exactly.

// chunkRefs is the references per traced chunk (sim's replay chunk).
const chunkRefs = 4096

// figLogSBF is the complete-subblock TLB's block size (factor 16).
const figLogSBF = 4

// orgLayer names the package that implements each Figure 11
// organization; per-layer metrics are named after it.
var orgLayer = map[string]string{
	"clustered":      "core",
	"hashed":         "hashed",
	"forward-mapped": "forward",
	"linear":         "linear",
}

// figCounts are one traced cell's simulated counts.
type figCounts struct {
	refMisses, refAccesses uint64
	// lines and probes are per organization (variant name).
	lines, probes map[string]uint64
	// l2Hits are L1 misses the L2 absorbed; pwcCalls and pwcHits count
	// the walk cache's filtered walks and the ones it shortened.
	l2Hits, pwcCalls, pwcHits uint64
}

// avgLines is RunFigure11's AvgLines for one organization.
func (c figCounts) avgLines(org string) float64 {
	return float64(c.lines[org]) / float64(c.refMisses)
}

// figMiss is one full miss of the reference TLB.
type figMiss struct {
	va addr.V
	// block marks a complete-subblock block miss, serviced by
	// prefetching the whole block.
	block bool
}

// tracedFigure replays one Figure 11 cell under the given -mmu mode,
// recording spans under a root span named "cell".
func tracedFigure(rec *recorder, f sim.Figure, p trace.Profile, mode string, refs int, seed uint64) (figCounts, error) {
	fc := figCounts{lines: map[string]uint64{}, probes: map[string]uint64{}}
	mcfg, err := sim.ParseMMU(mode)
	if err != nil {
		return fc, err
	}
	cell := fmt.Sprintf("%s/%s/%s", f, p.Name, mode)
	root := rec.begin("cell", cell, 0)
	for pi, snap := range p.Snapshot() {
		n := int(float64(refs) * p.Procs[pi].RefShare)
		if n == 0 {
			continue
		}
		if err := tracedProcess(rec, root, cell, f, mcfg, snap, n, seed, &fc); err != nil {
			return fc, fmt.Errorf("%s: %w", cell, err)
		}
	}
	rec.end(root, int64(fc.refAccesses))
	if fc.refMisses == 0 {
		return fc, fmt.Errorf("%s: no TLB misses", cell)
	}
	return fc, nil
}

func tracedProcess(rec *recorder, root int, cell string, f sim.Figure, mcfg sim.MMUConfig,
	snap trace.ProcessSnapshot, refs int, seed uint64, fc *figCounts) error {
	model := memcost.NewModel(0)
	variants := f.Variants()
	tables := make([]pagetable.PageTable, len(variants))
	var canonical pagetable.PageTable
	pwcIdx, linIdx := -1, -1
	for i, v := range variants {
		sp := rec.begin("sim.build", cell, root)
		b, err := sim.BuildProcess(v, f.Mode(), snap, model)
		if err != nil {
			return err
		}
		rec.end(sp, int64(snap.MappedPages()))
		tables[i] = b.Table
		if v.ReservedTLB > 0 {
			linIdx = i
			continue
		}
		if v.Name == "clustered" {
			canonical = b.Table
		}
		if _, ok := b.Table.(pagetable.UpperWalker); ok {
			pwcIdx = i
		}
	}
	if linIdx < 0 {
		return fmt.Errorf("figure %s lacks a linear organization", f)
	}
	lt, ok := tables[linIdx].(*linear.Table)
	canonicalBlocks, ok2 := canonical.(pagetable.BlockReader)
	if !ok || !ok2 {
		return fmt.Errorf("figure %s lacks a linear or clustered organization", f)
	}
	var walked pagetable.PageTable
	if pwcIdx >= 0 {
		walked = tables[pwcIdx]
	}

	kind := f.TLBKind()
	ref := tlb.MustNew(tlb.Config{Kind: kind, Entries: 64})
	h := mcfg.BuildHierarchy(ref, walked, model)
	reserved := variants[linIdx].ReservedTLB
	linMain := tlb.MustNew(tlb.Config{Kind: kind, Entries: 64 - reserved})
	linPT := tlb.MustNew(tlb.Config{Kind: tlb.SinglePageSize, Entries: reserved})
	lh := mcfg.BuildHierarchy(linMain, lt, model)
	linName := variants[linIdx].Name

	gen := trace.NewGenerator(snap, seed*31+1)
	blocks := f == sim.Fig11d
	chunk := make([]addr.V, 0, chunkRefs)
	misses := make([]figMiss, 0, chunkRefs)
	costs := make([]pagetable.WalkCost, 0, chunkRefs)
	var refill, insert agg
	for left := refs; left > 0; left -= len(chunk) {
		cs := rec.begin("sim.replay", cell, root)
		t0 := rec.now()
		chunk = gen.Fill(chunk, min(chunkRefs, left))
		n := int64(len(chunk))
		rec.span("trace.fill", cell, cs, t0, rec.now(), n)

		// Driver pass: the reference TLB and, on every full miss, its
		// refill from the clustered table.
		misses = misses[:0]
		t0 = rec.now()
		for _, va := range chunk {
			res := h.Access(va)
			if res.Hit {
				continue
			}
			m := figMiss{va: va, block: blocks && !res.SubblockMiss}
			misses = append(misses, m)
			a := rec.now()
			if m.block {
				vpbn, _ := addr.BlockSplit(addr.VPNOf(va), figLogSBF)
				entries, _, ok := canonicalBlocks.LookupBlock(vpbn, figLogSBF)
				if !ok {
					return fmt.Errorf("clustered table lost block %#x", uint64(vpbn))
				}
				b := rec.now()
				h.InsertBlock(vpbn, entries)
				refill.add(a, b)
				insert.add(b, rec.now())
				continue
			}
			e, _, ok := canonical.Lookup(va)
			if !ok {
				return fmt.Errorf("clustered table lost %#x", uint64(va))
			}
			b := rec.now()
			h.Insert(e)
			refill.add(a, b)
			insert.add(b, rec.now())
		}
		drv := rec.span("tlb.access", cell, cs, t0, rec.now(), n)
		rec.flush("core.refill", cell, drv, &refill)
		rec.flush("tlb.insert", cell, drv, &insert)

		// One walk pass per non-linear organization over the misses.
		for i, v := range variants {
			if i == linIdx {
				continue
			}
			costs = costs[:0]
			t0 = rec.now()
			for _, m := range misses {
				c, err := walk(tables[i], m)
				if err != nil {
					return fmt.Errorf("%s: %w", v.Name, err)
				}
				costs = append(costs, c)
			}
			rec.span(orgLayer[v.Name]+".walk", cell, cs, t0, rec.now(), int64(len(misses)))
			if i == pwcIdx && mcfg.PWC {
				t0 = rec.now()
				for k, m := range misses {
					c := h.FilterWalk(addr.VPNOf(m.va), costs[k])
					if c != costs[k] {
						fc.pwcHits++
					}
					costs[k] = c
				}
				fc.pwcCalls += uint64(len(misses))
				rec.span("mmu.filter_walk", cell, cs, t0, rec.now(), int64(len(misses)))
			}
			for _, c := range costs {
				fc.lines[v.Name] += uint64(c.Lines)
				fc.probes[v.Name] += uint64(c.Probes)
			}
		}

		// The linear organization's private TLB pair, every reference.
		t0 = rec.now()
		for _, va := range chunk {
			lines, err := linearStep(lh, linPT, lt, va, blocks)
			if err != nil {
				return err
			}
			fc.lines[linName] += lines
		}
		rec.span("linear.walk", cell, cs, t0, rec.now(), n)
		rec.end(cs, n)
	}

	// Each L1 miss probed the L2 once, charged to every organization
	// that shares the reference TLB.
	for i, v := range variants {
		if i != linIdx {
			fc.lines[v.Name] += uint64(h.ProbeCost().Lines)
		}
	}
	fc.lines[linName] += uint64(lh.ProbeCost().Lines)
	st := ref.Stats()
	fc.refMisses += st.Misses
	fc.refAccesses += st.Accesses
	for _, n := range h.LowerHits() {
		fc.l2Hits += n
	}
	return nil
}

// walk services one miss on a non-linear organization.
func walk(t pagetable.PageTable, m figMiss) (pagetable.WalkCost, error) {
	if m.block {
		vpbn, _ := addr.BlockSplit(addr.VPNOf(m.va), figLogSBF)
		br, ok := t.(pagetable.BlockReader)
		if !ok {
			return pagetable.WalkCost{}, fmt.Errorf("cannot prefetch blocks")
		}
		_, c, found := br.LookupBlock(vpbn, figLogSBF)
		if !found {
			return c, fmt.Errorf("lost block %#x", uint64(vpbn))
		}
		return c, nil
	}
	_, c, found := t.Lookup(m.va)
	if !found {
		return c, fmt.Errorf("lost %#x", uint64(m.va))
	}
	return c, nil
}

// linearStep advances the linear organization's TLB pair by one
// reference (§6.1): a main-TLB miss reads the leaf PTE, and a miss in
// the reserved entries that map the page table adds the upper walk,
// which the walk cache may shorten. It returns the lines charged.
func linearStep(lh *mmu.Hierarchy, pt *tlb.TLB, lt *linear.Table, va addr.V, blocks bool) (uint64, error) {
	res := lh.Access(va)
	if res.Hit {
		return 0, nil
	}
	vpn := addr.VPNOf(va)
	var lines uint64
	if blocks && !res.SubblockMiss {
		vpbn, _ := addr.BlockSplit(vpn, figLogSBF)
		entries, c, ok := lt.LookupBlock(vpbn, figLogSBF)
		if !ok {
			return 0, fmt.Errorf("linear lost block %#x", uint64(vpbn))
		}
		lines += uint64(c.Lines)
		lh.InsertBlock(vpbn, entries)
	} else {
		e, c, ok := lt.Lookup(va)
		if !ok {
			return 0, fmt.Errorf("linear lost %#x", uint64(va))
		}
		lines += uint64(c.Lines)
		lh.Insert(e)
	}
	leaf := addr.VPN(linear.LeafPageIndex(vpn))
	if !pt.Access(addr.VAOf(leaf)).Hit {
		lines += uint64(lh.FilterWalk(vpn, lt.UpperWalkCost(vpn)).Lines)
		pt.Insert(mmu.BaseEntry(leaf))
	}
	return lines, nil
}

package sim

import (
	"fmt"

	"clusterpt/internal/addr"
	"clusterpt/internal/mmu"
	"clusterpt/internal/tlb"
	"clusterpt/internal/trace"
)

// MultiprogramRow addresses the limitation §7 states up front: "we do not
// stress the TLB with multiprogrammed workloads. Multiprogramming can
// increase the number of TLB misses and make TLB miss handling more
// significant [Agar88]." This extension experiment interleaves a
// workload's processes on one TLB — with and without address-space
// identifiers — and compares against the per-process baseline the main
// experiments use.
type MultiprogramRow struct {
	Workload string
	// Quantum is the context-switch interval in references.
	Quantum int
	// IsolatedMisses is the sum of per-process misses on private TLBs
	// (the paper's methodology).
	IsolatedMisses uint64
	// SharedASIDMisses interleaves on one TLB whose entries survive
	// switches (ASID-tagged entries).
	SharedASIDMisses uint64
	// FlushMisses interleaves on one TLB flushed on every switch (no
	// ASIDs) — the worst case.
	FlushMisses uint64
}

// RunMultiprogram measures multiprogramming TLB interference for one
// workload (meaningful for the multi-process profiles; single-process
// profiles show pure self-interference, i.e. no inflation).
func RunMultiprogram(p trace.Profile, quantum, refs int, seed uint64) (MultiprogramRow, error) {
	if quantum <= 0 {
		quantum = 2000
	}
	if refs <= 0 {
		refs = 200_000
	}
	if seed == 0 {
		seed = 1
	}
	row := MultiprogramRow{Workload: p.Name, Quantum: quantum}
	if p.SnapshotOnly {
		return row, fmt.Errorf("sim: %s has no trace", p.Name)
	}
	snaps := p.Snapshot()

	// Per-process reference budgets.
	budgets := make([]int, len(snaps))
	for i := range snaps {
		budgets[i] = int(float64(refs) * p.Procs[i].RefShare)
	}

	// One chunk buffer serves every loop in this run.
	buf := &ReplayBuf{}

	// Baseline: private TLBs (the paper's per-process methodology).
	for i, snap := range snaps {
		if budgets[i] == 0 {
			continue
		}
		t := tlb.MustNew(tlb.Config{Kind: tlb.SinglePageSize, Entries: 64})
		gen := trace.NewGenerator(snap, seed*31+1)
		if err := replay(gen, buf, budgets[i], func(va addr.V) error {
			// Interference modeling reads only the TLB's tags, so every
			// miss fills the tag-only base word.
			if !t.Access(va).Hit {
				t.InsertWord(addr.VPNOf(va), mmu.BaseWord())
			}
			return nil
		}); err != nil {
			return row, err
		}
		row.IsolatedMisses += t.Stats().Misses
	}

	// Interleaved runs: round-robin with the given quantum. ASID mode
	// disambiguates identical VPNs across processes by folding the
	// process index into high address bits (our per-process layouts
	// overlap, as real 32-bit processes do).
	for _, mode := range []struct {
		flush bool
		dst   *uint64
	}{
		{false, &row.SharedASIDMisses},
		{true, &row.FlushMisses},
	} {
		t := tlb.MustNew(tlb.Config{Kind: tlb.SinglePageSize, Entries: 64})
		gens := make([]*trace.Generator, len(snaps))
		remaining := make([]int, len(snaps))
		for i, snap := range snaps {
			gens[i] = trace.NewGenerator(snap, seed*31+1)
			remaining[i] = budgets[i]
		}
		var misses uint64
		active := true
		cur := -1
		for active {
			active = false
			for i := range snaps {
				if remaining[i] == 0 {
					continue
				}
				active = true
				if cur != i {
					cur = i
					if mode.flush {
						t.Flush()
					}
				}
				n := quantum
				if n > remaining[i] {
					n = remaining[i]
				}
				remaining[i] -= n
				fold := addr.V(uint64(i+1) << 40)
				if err := replay(gens[i], buf, n, func(va addr.V) error {
					va |= fold
					if !t.Access(va).Hit {
						misses++
						t.InsertWord(addr.VPNOf(va), mmu.BaseWord())
					}
					return nil
				}); err != nil {
					return row, err
				}
			}
		}
		*mode.dst = misses
	}
	return row, nil
}

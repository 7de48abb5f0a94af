package trace

import (
	"fmt"
	"slices"

	"clusterpt/internal/addr"
)

// PlacedRegion is a region with its virtual placement and the list of
// pages actually mapped (holes removed per the region's density).
type PlacedRegion struct {
	Spec  RegionSpec
	Base  addr.V
	Pages []addr.VPN // ascending
}

// Range returns the region's full extent.
func (r PlacedRegion) Range() addr.Range {
	return addr.Range{Start: r.Base, Len: r.Spec.Pages * addr.BasePageSize}
}

// ProcessSnapshot is one process's mapped address space near maximum
// memory use — the input to the page-table size experiments.
type ProcessSnapshot struct {
	Name     string
	RefShare float64
	Regions  []PlacedRegion
}

// MappedPages counts the process's mapped base pages.
func (s ProcessSnapshot) MappedPages() uint64 {
	var n uint64
	for _, r := range s.Regions {
		n += uint64(len(r.Pages))
	}
	return n
}

// AllPages returns every mapped VPN, ascending.
func (s ProcessSnapshot) AllPages() []addr.VPN {
	out := make([]addr.VPN, 0, s.MappedPages())
	for _, r := range s.Regions {
		out = append(out, r.Pages...)
	}
	slices.Sort(out)
	return out
}

// Snapshot deterministically places and populates the profile's regions,
// one ProcSnapshot per process.
func (p Profile) Snapshot() []ProcessSnapshot {
	out := make([]ProcessSnapshot, len(p.Procs))
	for pi := range p.Procs {
		out[pi] = p.ProcSnapshot(pi)
	}
	return out
}

// ProcSnapshot places and populates process pi's regions alone: it
// equals Snapshot()[pi], since each process draws from its own seeded
// RNG, at the cost of one process instead of all of them. Layout
// follows 32-bit Unix convention (the paper's workloads are 32-bit,
// §6.2): text from 64KB, data/heap packed above it with guard gaps,
// scattered regions at pseudo-random 64KB-aligned bases below 4GB.
func (p Profile) ProcSnapshot(pi int) ProcessSnapshot {
	proc := p.Procs[pi]
	rng := NewRNG(p.Seed*1000003 + uint64(pi)*7919)
	snap := ProcessSnapshot{Name: proc.Name, RefShare: proc.RefShare}
	var taken []addr.Range
	cursor := addr.V(0x10000)
	for _, spec := range proc.Regions {
		base := cursor
		if spec.Scatter {
			base = scatterBase(rng, spec.Pages, taken)
		}
		if spec.Unaligned {
			// Offset by a few pages so page blocks straddle region
			// edges, exercising partially-populated blocks.
			base += addr.V((1 + rng.Uint64n(7)) * addr.BasePageSize)
		}
		pr := placeRegion(rng, spec, base)
		taken = append(taken, pr.Range())
		if !spec.Scatter {
			// Pack the next region above with a guard gap.
			cursor = addr.AlignUp(pr.Range().End()+addr.V(16*addr.BasePageSize), 0x10000)
		}
		snap.Regions = append(snap.Regions, pr)
	}
	return snap
}

// scatterBase finds a 64KB-aligned base below 4GB that does not overlap
// previously placed regions.
func scatterBase(rng *RNG, pages uint64, taken []addr.Range) addr.V {
	need := addr.Range{Len: pages * addr.BasePageSize}
	for try := 0; try < 1000; try++ {
		base := addr.V(rng.Uint64n(1<<32-need.Len) &^ 0xffff)
		if base < 0x20000 {
			continue
		}
		need.Start = base
		clear := true
		for _, t := range taken {
			if t.Overlaps(need) {
				clear = false
				break
			}
		}
		if clear {
			return base
		}
	}
	panic(fmt.Sprintf("trace: cannot scatter %d pages", pages))
}

// placeRegion selects the mapped pages of a region per its density.
func placeRegion(rng *RNG, spec RegionSpec, base addr.V) PlacedRegion {
	pr := PlacedRegion{Spec: spec, Base: base}
	first := addr.VPNOf(base)
	for i := uint64(0); i < spec.Pages; i++ {
		if spec.Density < 1 && rng.Float64() >= spec.Density {
			continue
		}
		pr.Pages = append(pr.Pages, first+addr.VPN(i))
	}
	if len(pr.Pages) == 0 { // a region always maps at least one page
		pr.Pages = append(pr.Pages, first)
	}
	return pr
}

// TotalMappedPages sums mapped pages across a profile's processes.
func (p Profile) TotalMappedPages() uint64 {
	var n uint64
	for _, s := range p.Snapshot() {
		n += s.MappedPages()
	}
	return n
}

// TargetPages returns the Table 1 calibration target for the profile.
func (p Profile) TargetPages() uint64 { return pages(p.Paper.HashedKB) }

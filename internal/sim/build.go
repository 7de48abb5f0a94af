// Package sim is the experiment harness: it rebuilds every table and
// figure of the paper's evaluation (§6) from the synthetic workloads —
// page-table sizes (Figures 9 and 10), page-table access time as average
// cache lines per TLB miss (Figures 11a–d), the workload characterization
// (Table 1), the analytic model (Appendix Table 2), and the sensitivity
// sweeps §6.3 and §7 discuss.
package sim

import (
	"fmt"

	"clusterpt/internal/addr"
	"clusterpt/internal/core"
	"clusterpt/internal/forward"
	"clusterpt/internal/hashed"
	"clusterpt/internal/linear"
	"clusterpt/internal/memcost"
	"clusterpt/internal/mm"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/trace"
)

// PTEMode selects which PTE formats a build may use (§4, §5).
type PTEMode int

// PTE modes.
const (
	// BaseOnly uses 4KB PTEs exclusively (Figure 9, Figures 11a and 11d).
	BaseOnly PTEMode = iota
	// WithSuperpages lets fully-populated, properly-placed blocks use
	// 64KB superpage PTEs (Figures 10 and 11b).
	WithSuperpages
	// WithPartial lets properly-placed blocks use partial-subblock PTEs,
	// full blocks included (Figures 10 and 11c).
	WithPartial
)

func (m PTEMode) policy() mm.Policy {
	switch m {
	case WithSuperpages:
		return mm.Policy{UseSuperpages: true}
	case WithPartial:
		return mm.Policy{UseSuperpages: false, UsePartial: true}
	default:
		return mm.Policy{}
	}
}

// TableVariant names one page-table organization under test.
type TableVariant struct {
	// Name labels the variant in reports (e.g. "clustered").
	Name string
	// New builds an empty table with the given cache-line model.
	New func(m memcost.Model) pagetable.PageTable
	// ReservedTLB is the number of TLB entries the organization needs
	// reserved for mappings to the page table itself (§6.1: eight for
	// linear page tables).
	ReservedTLB int
}

// Standard variants. The paper's base case: 4096 buckets, subblock
// factor 16, 256-byte lines.
func variantLinear6(m memcost.Model) pagetable.PageTable {
	return linear.MustNew(linear.Config{CostModel: m})
}
func variantLinear1(m memcost.Model) pagetable.PageTable {
	return linear.MustNew(linear.Config{OneLevel: true, CostModel: m})
}
func variantForward(m memcost.Model) pagetable.PageTable {
	return forward.MustNew(forward.Config{CostModel: m})
}
func variantHashed(m memcost.Model) pagetable.PageTable {
	return hashed.MustNew(hashed.Config{CostModel: m})
}
func variantHashedMulti(m memcost.Model) pagetable.PageTable {
	return hashed.MustNewMulti(hashed.Config{CostModel: m}, 4, hashed.BaseFirst)
}
func variantHashedMultiSuperFirst(m memcost.Model) pagetable.PageTable {
	return hashed.MustNewMulti(hashed.Config{CostModel: m}, 4, hashed.SuperFirst)
}
func variantClustered(m memcost.Model) pagetable.PageTable {
	return core.MustNew(core.Config{CostModel: m})
}

// SizeVariants are the Figure 9 organizations.
func SizeVariants() []TableVariant {
	return []TableVariant{
		{Name: "linear-6level", New: variantLinear6},
		{Name: "linear-1level", New: variantLinear1, ReservedTLB: 8},
		{Name: "forward-mapped", New: variantForward},
		{Name: "hashed", New: variantHashed},
		{Name: "clustered", New: variantClustered},
	}
}

// Fig10Variants are the Figure 10 organizations (each below 1.0 in the
// paper) with the PTE mode each uses.
type ModedVariant struct {
	TableVariant
	Mode PTEMode
}

// Fig10Variants returns the Figure 10 series.
func Fig10Variants() []ModedVariant {
	return []ModedVariant{
		{TableVariant{Name: "hashed+superpage", New: variantHashedMulti}, WithSuperpages},
		{TableVariant{Name: "clustered", New: variantClustered}, BaseOnly},
		{TableVariant{Name: "clustered+superpage", New: variantClustered}, WithSuperpages},
		{TableVariant{Name: "clustered+psb", New: variantClustered}, WithPartial},
	}
}

// Build is one process's populated page table plus the address space
// that populated it.
type Build struct {
	Snap  trace.ProcessSnapshot
	Space *mm.AddressSpace
	Table pagetable.PageTable
}

// BuildProcess populates a fresh table of the given variant from one
// process snapshot, pushing every page through the reservation allocator
// so placement (and with it fss, the fraction of blocks using compact
// PTEs) is decided exactly as the OS substrate would.
func BuildProcess(v TableVariant, mode PTEMode, snap trace.ProcessSnapshot, m memcost.Model) (*Build, error) {
	return buildInto(v.New(m), mode, snap)
}

// buildInto populates an empty (fresh or pool-reset) table from one
// process snapshot.
func buildInto(pt pagetable.PageTable, mode PTEMode, snap trace.ProcessSnapshot) (*Build, error) {
	frames := snap.MappedPages()*2 + 64
	frames = (frames + 15) &^ 15
	space := mm.NewAddressSpace(pt, mm.MustNewAllocator(frames, 4), mode.policy())
	for _, r := range snap.Regions {
		if err := space.Reserve(r.Range(), r.Spec.Attr, r.Spec.Name); err != nil {
			return nil, fmt.Errorf("sim: reserve %s/%s: %w", snap.Name, r.Spec.Name, err)
		}
		if err := populateRegion(space, r); err != nil {
			return nil, fmt.Errorf("sim: populate %s/%s: %w", snap.Name, r.Spec.Name, err)
		}
	}
	return &Build{Snap: snap, Space: space, Table: pt}, nil
}

// populateRegion populates a region's mapped pages, batching contiguous
// page runs so the block-level policy sees the region's real shape.
func populateRegion(space *mm.AddressSpace, r trace.PlacedRegion) error {
	if len(r.Pages) == 0 {
		return nil
	}
	runStart := r.Pages[0]
	prev := r.Pages[0]
	flush := func(last addr.VPN) error {
		return space.Populate(addr.PageRange(addr.VAOf(runStart), uint64(last-runStart)+1))
	}
	for _, vpn := range r.Pages[1:] {
		if vpn == prev+1 {
			prev = vpn
			continue
		}
		if err := flush(prev); err != nil {
			return err
		}
		runStart, prev = vpn, vpn
	}
	return flush(prev)
}

// BuildWorkload builds every process of a profile.
func BuildWorkload(v TableVariant, mode PTEMode, p trace.Profile, m memcost.Model) ([]*Build, error) {
	var out []*Build
	for _, snap := range p.Snapshot() {
		b, err := BuildProcess(v, mode, snap, m)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// WorkloadPTEBytes sums PTE memory across a workload's processes — the
// paper computes multiprogrammed page-table size as the sum over
// constituent programs (§6.1).
func WorkloadPTEBytes(builds []*Build) uint64 {
	var n uint64
	for _, b := range builds {
		n += b.Table.Size().PTEBytes
	}
	return n
}

package sim

import (
	"fmt"

	"clusterpt/internal/forward"
	"clusterpt/internal/linear"
	"clusterpt/internal/memcost"
	"clusterpt/internal/mmu"
	"clusterpt/internal/mmu/walkcache"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/swtlb"
)

// MMUConfig selects the translation hierarchy the replay models around
// each simulated TLB. The zero value is the flat single-level hierarchy
// the paper evaluates — every rendered byte is identical to the
// pre-hierarchy simulator in that case, which golden tests pin.
type MMUConfig struct {
	// L2Entries adds a unified L2 TLB (a memory-resident swtlb level)
	// of this many entries below the L1; 0 means no L2.
	L2Entries int
	// L2Ways is the L2 associativity (default 4 when L2Entries > 0).
	// At a 16-byte entry, up to 16 ways fit one 256-byte line, which
	// keeps the probe cost at the single line l2ProbeLines charges.
	L2Ways int
	// PWC adds a page-walk cache in front of each tree-walked table
	// (forward-mapped walks, and the linear table's nested upper walk);
	// organizations without upper walk levels are unaffected.
	PWC bool
	// PWCEntries sizes the page-walk cache (default 16).
	PWCEntries int
}

// Flat reports whether the hierarchy is the trivial single-level one.
func (m MMUConfig) Flat() bool { return m.L2Entries == 0 && !m.PWC }

// String renders the -mmu flag spelling of the configuration.
func (m MMUConfig) String() string {
	switch {
	case m.Flat():
		return "flat"
	case m.L2Entries > 0 && m.PWC:
		return "l2+pwc"
	case m.L2Entries > 0:
		return "l2"
	default:
		return "pwc"
	}
}

// ParseMMU parses the -mmu flag: "flat" (or empty) keeps the paper's
// single L1, "l2" adds a 1024-entry 4-way unified L2 TLB, "l2+pwc"
// additionally adds a 16-entry page-walk cache.
func ParseMMU(s string) (MMUConfig, error) {
	switch s {
	case "", "flat":
		return MMUConfig{}, nil
	case "l2":
		return MMUConfig{L2Entries: 1024, L2Ways: 4}, nil
	case "l2+pwc":
		return MMUConfig{L2Entries: 1024, L2Ways: 4, PWC: true, PWCEntries: 16}, nil
	default:
		return MMUConfig{}, fmt.Errorf("sim: unknown -mmu %q (want flat, l2, or l2+pwc)", s)
	}
}

// l2ProbeLines is the cache-line cost of one L2 TLB probe, hit or miss:
// the probed set fits one line (MMUConfig.L2Ways documents the bound),
// exactly the swtlb probe meter's answer, hoisted to a constant so
// walkLane charges it with pure arithmetic.
const l2ProbeLines = 1

// walkCacheSpan returns log2 of the page span one cached upper-walk
// node covers: the forward-mapped tree's leaf node (its last level's
// index width) or the linear table's 512-PTE page-table page.
func walkCacheSpan(t pagetable.UpperWalker) uint {
	switch tt := t.(type) {
	case *forward.Table:
		return tt.LeafSpan()
	case *linear.Table:
		return linear.LeafSpanBits
	default:
		return 8
	}
}

// newPWC builds the page-walk cache for one tree-walked table.
func (m MMUConfig) newPWC(uw pagetable.UpperWalker) *walkcache.PWC {
	return walkcache.MustNew(walkcache.Config{Entries: m.PWCEntries, LogSpan: walkCacheSpan(uw)}, uw)
}

// l2Geometry is the L2 TLB's shape as built: its entries and effective
// ways, {0, 0} without an L2. Pipelines of one geometry evolve
// identical L2 state.
func (m MMUConfig) l2Geometry() [2]int {
	switch {
	case m.L2Entries == 0:
		return [2]int{}
	case m.L2Ways == 0:
		return [2]int{m.L2Entries, 4}
	default:
		return [2]int{m.L2Entries, m.L2Ways}
	}
}

// newL2 builds one L2 TLB level, or nil when the config has none.
func (m MMUConfig) newL2(model memcost.Model) *swtlb.Cache {
	g := m.l2Geometry()
	if g[0] == 0 {
		return nil
	}
	return swtlb.MustNewLevel(swtlb.Config{Entries: g[0], Ways: g[1], CostModel: model})
}

// BuildHierarchy wraps l1 in the configured translation pipeline: the
// L2 level when configured (probe = one line, hit or miss), and the
// page-walk cache when the table exposes upper walk levels. The flat
// zero value returns a single-level hierarchy that delegates every call
// to l1 verbatim, so callers can thread it unconditionally.
func (m MMUConfig) BuildHierarchy(l1 mmu.Level, table pagetable.PageTable, model memcost.Model) *mmu.Hierarchy {
	h := mmu.NewHierarchy(l1)
	if l2 := m.newL2(model); l2 != nil {
		probe := pagetable.WalkCost{Lines: l2ProbeLines, Probes: 1}
		h.AddLevel(mmu.LevelSpec{Level: l2.AsLevel(), HitCost: probe, MissCost: probe})
	}
	if m.PWC {
		if uw, ok := table.(pagetable.UpperWalker); ok {
			h.SetFilter(m.newPWC(uw))
		}
	}
	return h
}

// Package mmu defines the composable translation hierarchy: the Level
// contract every TLB-like structure implements (the simulated hardware
// TLBs of internal/tlb, the software TLB of internal/swtlb, the
// page-walk cache of internal/mmu/walkcache), the unified Stats shape
// their miss accounting shares, and the Hierarchy composition that
// chains L1 TLB → L2 TLB → page-walk cache → full table walk.
//
// The package is deliberately a leaf: it imports only the address,
// PTE, and page-table cost vocabularies, and the concrete levels
// implement its interfaces structurally. That keeps the hot replay
// paths free of cross-package cycles — internal/tlb and internal/swtlb
// alias their Stats to mmu.Stats and pick up Level without mmu ever
// naming them.
package mmu

import (
	"clusterpt/internal/addr"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
)

// Result reports the outcome of one access at one level.
type Result struct {
	// Hit is true when the level covered the address.
	Hit bool
	// SubblockMiss is true when a complete-subblock TLB had the block's
	// tag resident but not the page's mapping: servicing it adds a
	// mapping without replacing an entry (§4.4).
	SubblockMiss bool
}

// Stats is the unified traffic-counter shape every level reports.
// It is the superset of the hardware-TLB and software-TLB counters:
// single-page levels leave the subblock fields zero, cache-style levels
// may leave Replacements zero. Per-level numbers in reports are
// comparable because they all come out of this one struct; display
// names are rebound at report time, never stored here.
//
// For the complete-subblock kind Misses = BlockMisses + SubblockMisses.
type Stats struct {
	Accesses       uint64
	Hits           uint64
	Misses         uint64
	BlockMisses    uint64
	SubblockMisses uint64
	Replacements   uint64
}

// MissRatio returns misses per access.
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Add merges another level's counters (used when per-slice stats fold
// into an aggregate).
func (s *Stats) Add(o Stats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.BlockMisses += o.BlockMisses
	s.SubblockMisses += o.SubblockMisses
	s.Replacements += o.Replacements
}

// Level is one stage of a translation hierarchy: anything that caches
// translations, answers lookups, accepts fills, and can be emptied by a
// shootdown. Victim selection must be deterministic — a Level driven
// with the same operation sequence must always evict the same entries —
// because the replay harness promises byte-identical results at any
// worker/shard count and levels are replayed in stream order.
//
// Levels are simulation models: Access answers hit/miss and evolves
// replacement state, it does not produce the translation itself (the
// hierarchy's walker stage does that). Levels that can also surface
// entries (the software TLB) expose that through their own richer
// methods; the Level surface is the common denominator the Hierarchy
// composes.
type Level interface {
	// Name identifies the level in reports (display names for tables
	// are rebound at report time; this is the structural identity).
	Name() string
	// Access looks up va, updating replacement state and statistics.
	Access(va addr.V) Result
	// Insert fills the translation a walk produced for the faulting
	// page.
	Insert(e pte.Entry)
	// Flush invalidates every entry — the whole-level shootdown.
	Flush()
	// Stats returns the traffic counters.
	Stats() Stats
	// ResetStats clears the traffic counters, keeping contents.
	ResetStats()
}

// Invalidator is implemented by levels that support single-page
// shootdown (drop any entry covering vpn) in addition to Flush.
type Invalidator interface {
	Invalidate(vpn addr.VPN)
}

// BlockInserter is implemented by levels that can load a whole page
// block under one tag — the complete-subblock TLB's prefetch fill
// (§4.4).
type BlockInserter interface {
	InsertBlock(vpbn addr.VPBN, entries []pte.Entry)
}

// WalkFilter sits between the last caching level and the full walk: a
// page-walk cache that can elide the upper levels of a tree walk.
// FilterWalk both accounts the walk (probing and filling the cache as a
// side effect, in call order — callers must invoke it in stream order
// for determinism) and returns the cost actually charged.
type WalkFilter interface {
	// FilterWalk returns cost with the upper-walk portion elided when
	// the cache covers vpn's upper-walk node, filling the cache on a
	// miss.
	FilterWalk(vpn addr.VPN, cost pagetable.WalkCost) pagetable.WalkCost
	// Flush empties the cache (shootdown).
	Flush()
}

// WordInserter is implemented by levels whose fill core takes the
// packed mapping word rather than a decoded entry: InsertWord loads the
// translation w gives page vpn. The TLB models (tlb.TLB, tlb.Partitioned,
// swtlb's Level) and Hierarchy all implement it, and each one's
// Level.Insert is an adapter over it, so a level has one fill
// implementation whichever surface a caller uses. A Hierarchy fills its
// levels through it, so every level a Hierarchy composes must implement
// it.
type WordInserter interface {
	InsertWord(vpn addr.VPN, w pte.Word)
}

// BaseWord is the mapping word of a hierarchy refill (an L2 hit loads
// one 4KB translation into the L1; only a full walk recovers superpage
// or subblock coverage): a valid base-page word. The model levels read
// only the tag a fill names, so the frame is not modeled and is zero,
// which packs for any VPN.
func BaseWord() pte.Word { return pte.MakeBase(0, 0) }

// BaseEntry is BaseWord decoded for vpn: the single-page translation a
// lower level hands up on a hit, for callers that fill with entries.
func BaseEntry(vpn addr.VPN) pte.Entry { return pte.EntryFromWord(BaseWord(), vpn, 0) }

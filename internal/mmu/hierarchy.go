package mmu

import (
	"strings"

	"clusterpt/internal/addr"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
)

// LevelSpec pairs a caching level with the constant cost of probing it.
// The first level is the hardware L1 TLB and probes for free; every
// level below it is a memory-resident structure whose probe touches
// cache lines whether it hits or misses. Both costs are fixed per level
// (a set-associative probe reads the same set either way), which is
// what lets the sharded replay charge them with pure arithmetic in any
// lane.
type LevelSpec struct {
	Level Level
	// HitCost is charged when this level satisfies a lookup.
	HitCost pagetable.WalkCost
	// MissCost is charged when this level is probed and misses.
	MissCost pagetable.WalkCost
}

// Hierarchy chains translation levels: L1 TLB → optional lower levels
// (an L2 TLB) → optional page-walk cache → the caller's full table
// walk. It implements Level itself, so a Hierarchy drops in anywhere a
// single TLB did; with exactly one level and no filter it delegates
// every call to that level untouched, which is what keeps all
// previously rendered output byte-identical under the default flat
// configuration.
//
// The Hierarchy is a model, not a translator: levels answer hit/miss
// and evolve replacement state, while translations flow from the
// caller's table walk into Insert (or InsertWord). On a lower-level hit
// the upper levels are refilled with the base-page word for the faulting
// address (BaseWord) — a hierarchy refill never recovers superpage or
// subblock coverage; only a full walk does. Every level must implement
// WordInserter: fills reach the levels as packed words.
//
// A Hierarchy is single-threaded, like the TLB models it composes;
// wrap it in Shared for concurrent callers.
type Hierarchy struct {
	levels []LevelSpec
	// fills is index-aligned with levels: each level's word fill core.
	fills  []WordInserter
	filter WalkFilter

	lowerHits []uint64 // lowerHits[i] = hits at levels[i], i >= 1
	fullMiss  uint64   // misses that fell through every level
	probeCost pagetable.WalkCost
}

// NewHierarchy builds a flat (single-level) hierarchy over l1, which
// must implement WordInserter.
func NewHierarchy(l1 Level) *Hierarchy {
	return (&Hierarchy{}).AddLevel(LevelSpec{Level: l1})
}

// AddLevel appends a lower caching level with its probe costs. The
// level must implement WordInserter; AddLevel panics otherwise.
func (h *Hierarchy) AddLevel(spec LevelSpec) *Hierarchy {
	wi, ok := spec.Level.(WordInserter)
	if !ok {
		panic("mmu: level " + spec.Level.Name() + " has no word fill (WordInserter)")
	}
	h.levels = append(h.levels, spec)
	h.fills = append(h.fills, wi)
	h.lowerHits = append(h.lowerHits, 0)
	return h
}

// SetFilter attaches the page-walk cache stage.
func (h *Hierarchy) SetFilter(f WalkFilter) *Hierarchy {
	h.filter = f
	return h
}

// Flat reports whether the hierarchy is the trivial single-level one
// (bare L1, no walk filter), i.e. behaviourally identical to its L1.
func (h *Hierarchy) Flat() bool {
	return len(h.levels) == 1 && h.filter == nil
}

// Name implements Level: the level names joined bottom of the chain
// last, "+pwc" appended when a walk filter is attached.
func (h *Hierarchy) Name() string {
	var b strings.Builder
	for i, l := range h.levels {
		if i > 0 {
			b.WriteByte('+')
		}
		b.WriteString(l.Level.Name())
	}
	if h.filter != nil {
		b.WriteString("+pwc")
	}
	return b.String()
}

// Access implements Level. The L1 is probed first; on a miss each lower
// level is probed in order, charging its constant probe cost. A
// lower-level hit refills every level above it with the base-page
// translation and reports a hierarchy hit; only when all levels miss
// does the caller need to walk the table (and then Insert the result).
// The returned SubblockMiss flag is the L1's, so complete-subblock
// callers still know whether a block tag was resident.
func (h *Hierarchy) Access(va addr.V) Result {
	r := h.levels[0].Level.Access(va)
	if len(h.levels) == 1 {
		return r
	}
	if r.Hit {
		return r
	}
	for i := 1; i < len(h.levels); i++ {
		spec := &h.levels[i]
		lr := spec.Level.Access(va)
		if lr.Hit {
			h.lowerHits[i]++
			h.probeCost.Add(spec.HitCost)
			vpn, w := addr.VPNOf(va), BaseWord()
			for j := i - 1; j >= 1; j-- {
				h.fills[j].InsertWord(vpn, w)
			}
			h.fills[0].InsertWord(vpn, w)
			return Result{Hit: true, SubblockMiss: r.SubblockMiss}
		}
		h.probeCost.Add(spec.MissCost)
	}
	h.fullMiss++
	return r
}

// FilterWalk passes a full-walk cost through the page-walk cache, or
// returns it unchanged when no filter is attached. Callers invoke it
// once per full miss, in stream order, with the cost their table walk
// produced.
func (h *Hierarchy) FilterWalk(vpn addr.VPN, cost pagetable.WalkCost) pagetable.WalkCost {
	if h.filter == nil {
		return cost
	}
	return h.filter.FilterWalk(vpn, cost)
}

// InsertWord implements WordInserter, the hierarchy's fill core: the
// translation w gives vpn fills every level.
func (h *Hierarchy) InsertWord(vpn addr.VPN, w pte.Word) {
	for _, f := range h.fills {
		f.InsertWord(vpn, w)
	}
}

// Insert implements Level: a walked translation fills every level, an
// adapter over InsertWord (tlb.TLB.Insert states its domain).
func (h *Hierarchy) Insert(e pte.Entry) { h.InsertWord(e.VPN, e.Word()) }

// InsertBlock loads a whole block: levels that support block fills take
// it as one tagged fill, the rest take the individual pages.
func (h *Hierarchy) InsertBlock(vpbn addr.VPBN, entries []pte.Entry) {
	for i := range h.levels {
		if bi, ok := h.levels[i].Level.(BlockInserter); ok {
			bi.InsertBlock(vpbn, entries)
			continue
		}
		for _, e := range entries {
			h.levels[i].Level.Insert(e)
		}
	}
}

// Invalidate shoots down one page at every level; levels without
// single-page invalidation flush entirely, the conservative shootdown.
func (h *Hierarchy) Invalidate(vpn addr.VPN) {
	for i := range h.levels {
		if inv, ok := h.levels[i].Level.(Invalidator); ok {
			inv.Invalidate(vpn)
			continue
		}
		h.levels[i].Level.Flush()
	}
	if h.filter != nil {
		if inv, ok := h.filter.(Invalidator); ok {
			inv.Invalidate(vpn)
		} else {
			h.filter.Flush()
		}
	}
}

// Flush implements Level: the whole-hierarchy shootdown empties every
// level and the walk filter.
func (h *Hierarchy) Flush() {
	for i := range h.levels {
		h.levels[i].Level.Flush()
	}
	if h.filter != nil {
		h.filter.Flush()
	}
}

// Stats implements Level. Flat hierarchies report their L1 verbatim.
// Multi-level hierarchies report the composed view: accesses and the
// L1's block/subblock split as the L1 saw them, hits as every access
// that some level covered, misses as only the full misses that reached
// the walk.
func (h *Hierarchy) Stats() Stats {
	s := h.levels[0].Level.Stats()
	if len(h.levels) == 1 {
		return s
	}
	s.Hits = s.Accesses - h.fullMiss
	s.Misses = h.fullMiss
	return s
}

// LevelNames returns each level's structural name, top first.
func (h *Hierarchy) LevelNames() []string {
	out := make([]string, len(h.levels))
	for i := range h.levels {
		out[i] = h.levels[i].Level.Name()
	}
	return out
}

// LowerHits returns, per level, how many L1 misses that level absorbed
// (index 0, the L1 itself, is always zero).
func (h *Hierarchy) LowerHits() []uint64 {
	out := make([]uint64, len(h.lowerHits))
	copy(out, h.lowerHits)
	return out
}

// FullMisses returns the misses that fell through every caching level.
func (h *Hierarchy) FullMisses() uint64 { return h.fullMiss }

// ProbeCost returns the accumulated cost of lower-level probes (the
// walk costs filtered through FilterWalk are the caller's to account).
func (h *Hierarchy) ProbeCost() pagetable.WalkCost { return h.probeCost }

// ResetStats implements Level, clearing every level's counters and the
// hierarchy's own.
func (h *Hierarchy) ResetStats() {
	for i := range h.levels {
		h.levels[i].Level.ResetStats()
	}
	for i := range h.lowerHits {
		h.lowerHits[i] = 0
	}
	h.fullMiss = 0
	h.probeCost = pagetable.WalkCost{}
}

var (
	_ Level         = (*Hierarchy)(nil)
	_ Invalidator   = (*Hierarchy)(nil)
	_ BlockInserter = (*Hierarchy)(nil)
	_ WordInserter  = (*Hierarchy)(nil)
)

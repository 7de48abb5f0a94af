package mmu_test

// Differential and unit tests for the composable hierarchy. The
// flat-identity suite is the refactor's acceptance gate: a Hierarchy
// wrapping a single TLB must be observably indistinguishable from the
// bare TLB — same Access results, same Stats after every operation — so
// victim choices cannot have diverged (a different victim surfaces as a
// different hit/miss on the next revisit, and Stats compare exactly).

import (
	"math/rand"
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/memcost"
	"clusterpt/internal/mmu"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
	"clusterpt/internal/swtlb"
	"clusterpt/internal/tlb"
)

var flatSpanSizes = [...]addr.Size{addr.Size4K, addr.Size64K, addr.Size256K, addr.Size1M}

// flatEntry derives a PTE from raw payload bits over a small VPN
// universe so streams revisit pages and churn victims (the same scheme
// as the tlb package's diff suite).
func flatEntry(x uint64) pte.Entry {
	vpn := addr.VPN(x & 0x3ff)
	e := pte.Entry{VPN: vpn, PPN: addr.PPN(vpn) + 1000, Kind: pte.KindBase, Size: addr.Size4K}
	switch x >> 10 & 3 {
	case 2:
		e.Kind = pte.KindSuperpage
		e.Size = flatSpanSizes[x>>12&3]
	case 3:
		e.Kind = pte.KindPartial
		e.ValidMask = uint16(x >> 16)
	}
	return e
}

// TestFlatHierarchyIdentity drives identical randomized op streams —
// accesses, inserts, block fills, single-page invalidates, flushes —
// through a Hierarchy-wrapped TLB and a bare twin of the same
// configuration, for every kind.
func TestFlatHierarchyIdentity(t *testing.T) {
	kinds := []tlb.Kind{tlb.SinglePageSize, tlb.Superpage, tlb.PartialSubblock, tlb.CompleteSubblock}
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				wrapped := tlb.MustNew(tlb.Config{Kind: kind, Entries: 16, LogSBF: 4})
				bare := tlb.MustNew(tlb.Config{Kind: kind, Entries: 16, LogSBF: 4})
				h := mmu.NewHierarchy(wrapped)
				if !h.Flat() {
					t.Fatal("single-level hierarchy does not report Flat")
				}
				rng := rand.New(rand.NewSource(seed*131 + 7))
				for op := 0; op < 5000; op++ {
					x := rng.Uint64()
					switch rng.Intn(10) {
					case 0:
						h.Insert(flatEntry(x))
						bare.Insert(flatEntry(x))
					case 1:
						vpn := addr.VPN(x & 0x3ff)
						h.Invalidate(vpn)
						bare.Invalidate(vpn)
					case 2:
						if op%100 == 0 { // rare: flushes reset the interesting state
							h.Flush()
							bare.Flush()
						}
					case 3:
						if kind != tlb.CompleteSubblock {
							break
						}
						vpbn, _ := addr.BlockSplit(addr.VPN(x&0x3ff), 4)
						base := addr.VPN(uint64(vpbn) << 4)
						es := []pte.Entry{
							{VPN: base + addr.VPN(x>>16&15), PPN: addr.PPN(base) + 2000},
							{VPN: base + addr.VPN(x>>20&15), PPN: addr.PPN(base) + 2001},
						}
						h.InsertBlock(vpbn, es)
						bare.InsertBlock(vpbn, es)
					default:
						va := addr.VAOf(addr.VPN(x&0x3ff)) + addr.V(x>>10&0xfff)
						hr := h.Access(va)
						br := bare.Access(va)
						if hr != br {
							t.Fatalf("seed %d op %d: Access(%#x) hierarchy %+v vs bare %+v",
								seed, op, va, hr, br)
						}
					}
					if hs, bs := h.Stats(), bare.Stats(); hs != bs {
						t.Fatalf("seed %d op %d: stats diverged: hierarchy %+v vs bare %+v",
							seed, op, hs, bs)
					}
				}
			}
		})
	}
}

// newL2 builds a small software L2 TLB level for hierarchy tests.
func newL2(t *testing.T, entries int) *swtlb.Cache {
	t.Helper()
	c, err := swtlb.NewLevel(swtlb.Config{Entries: entries, Ways: 4, CostModel: memcost.NewModel(0)})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestHierarchyL2AbsorbsMisses checks the composed behavior: entries
// evicted from a tiny L1 remain in the L2, so re-accesses report hits at
// the hierarchy level, refill the L1 with the base page, and never count
// as full misses.
func TestHierarchyL2AbsorbsMisses(t *testing.T) {
	l1 := tlb.MustNew(tlb.Config{Kind: tlb.SinglePageSize, Entries: 2})
	l2 := newL2(t, 64)
	h := mmu.NewHierarchy(l1).AddLevel(mmu.LevelSpec{
		Level:    l2.AsLevel(),
		HitCost:  pagetable.WalkCost{Lines: 1, Probes: 1},
		MissCost: pagetable.WalkCost{Lines: 1, Probes: 1},
	})
	if h.Flat() {
		t.Fatal("two-level hierarchy reports Flat")
	}

	// Fill pages 0..7 through full misses; the 2-entry L1 retains only
	// the last two, the L2 holds all eight.
	for vpn := addr.VPN(0); vpn < 8; vpn++ {
		if h.Access(addr.VAOf(vpn)).Hit {
			t.Fatalf("cold access of vpn %d hit", vpn)
		}
		h.Insert(mmu.BaseEntry(vpn))
	}
	// Revisit all eight: every access must now be a hierarchy hit (L1 or
	// L2), with zero new full misses.
	before := h.FullMisses()
	for vpn := addr.VPN(0); vpn < 8; vpn++ {
		if !h.Access(addr.VAOf(vpn)).Hit {
			t.Fatalf("revisit of vpn %d fell through the L2", vpn)
		}
	}
	if h.FullMisses() != before {
		t.Fatalf("revisits produced %d full misses", h.FullMisses()-before)
	}
	if hits := h.LowerHits()[1]; hits == 0 {
		t.Fatal("no L2 hits recorded")
	}
	if h.ProbeCost().Lines == 0 {
		t.Fatal("no probe cost accumulated")
	}
	s := h.Stats()
	if s.Hits+s.Misses != s.Accesses {
		t.Fatalf("composed stats do not add up: %+v", s)
	}
	if s.Misses != h.FullMisses() {
		t.Fatalf("composed Misses %d != full misses %d", s.Misses, h.FullMisses())
	}

	// An L2 hit must refill the L1: touch page 0 (long since evicted
	// from the 2-entry L1, so this is an L2 hit), then again — the
	// second access must hit in the L1 alone.
	h.Access(addr.VAOf(0))
	l1Hits := l1.Stats().Hits
	h.Access(addr.VAOf(0))
	if l1.Stats().Hits != l1Hits+1 {
		t.Fatal("L2 hit did not refill the L1")
	}
}

// TestHierarchyInvalidateAndFlush checks shootdown composition: a
// single-page invalidate removes the page from every level, and Flush
// empties the whole chain.
func TestHierarchyInvalidateAndFlush(t *testing.T) {
	l1 := tlb.MustNew(tlb.Config{Kind: tlb.SinglePageSize, Entries: 4})
	h := mmu.NewHierarchy(l1).AddLevel(mmu.LevelSpec{Level: newL2(t, 64).AsLevel()})

	h.Insert(mmu.BaseEntry(5))
	h.Insert(mmu.BaseEntry(6))
	h.Invalidate(5)
	if h.Access(addr.VAOf(5)).Hit {
		t.Fatal("invalidated page still hits")
	}
	if !h.Access(addr.VAOf(6)).Hit {
		t.Fatal("unrelated page was invalidated")
	}
	h.Flush()
	if h.Access(addr.VAOf(6)).Hit {
		t.Fatal("flushed page still hits")
	}
}

// TestHierarchyName pins the structural names reports bind to.
func TestHierarchyName(t *testing.T) {
	l1 := tlb.MustNew(tlb.Config{Kind: tlb.SinglePageSize, Entries: 4})
	h := mmu.NewHierarchy(l1)
	if h.Name() != l1.Name() {
		t.Fatalf("flat name %q != L1 name %q", h.Name(), l1.Name())
	}
	h.AddLevel(mmu.LevelSpec{Level: newL2(t, 64).AsLevel()})
	if want := l1.Name() + "+swtlb"; h.Name() != want {
		t.Fatalf("name %q, want %q", h.Name(), want)
	}
}

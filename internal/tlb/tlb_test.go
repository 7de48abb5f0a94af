package tlb

import (
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/pte"
)

func base(vpn addr.VPN, ppn addr.PPN) pte.Entry {
	return pte.Entry{VPN: vpn, PPN: ppn, Size: addr.Size4K, Kind: pte.KindBase}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Entries: -1}); err == nil {
		t.Error("negative entries accepted")
	}
	if _, err := New(Config{LogSBF: 5}); err == nil {
		t.Error("LogSBF 5 accepted")
	}
	if _, err := New(Config{Entries: MaxEntries}); err != nil {
		t.Errorf("MaxEntries rejected: %v", err)
	}
	for _, n := range []int{MaxEntries + 1, 300_000_000, 1 << 30} {
		if _, err := New(Config{Entries: n}); err == nil {
			t.Errorf("entries %d accepted", n)
		}
	}
	tl := MustNew(Config{})
	if tl.Entries() != 64 || tl.Kind() != SinglePageSize {
		t.Errorf("defaults: %d entries kind %v", tl.Entries(), tl.Kind())
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic")
		}
	}()
	MustNew(Config{Entries: -2})
}

func TestSingleHitMiss(t *testing.T) {
	tl := MustNew(Config{Entries: 4})
	if r := tl.Access(0x41034); r.Hit {
		t.Error("cold hit")
	}
	tl.Insert(base(0x41, 0x77))
	if r := tl.Access(0x41fff); !r.Hit {
		t.Error("miss after insert")
	}
	if r := tl.Access(0x42000); r.Hit {
		t.Error("neighbor page hit")
	}
	if ppn, ok := tl.Translate(0x41034); !ok || ppn != 0x77 {
		t.Errorf("Translate = %#x ok=%v", uint64(ppn), ok)
	}
	st := tl.Stats()
	if st.Accesses != 3 || st.Hits != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUReplacement(t *testing.T) {
	tl := MustNew(Config{Entries: 2})
	tl.Insert(base(1, 1))
	tl.Insert(base(2, 2))
	tl.Access(addr.VAOf(1)) // 1 is now MRU
	tl.Insert(base(3, 3))   // evicts 2
	if r := tl.Access(addr.VAOf(1)); !r.Hit {
		t.Error("MRU evicted")
	}
	if r := tl.Access(addr.VAOf(2)); r.Hit {
		t.Error("LRU survived")
	}
	if r := tl.Access(addr.VAOf(3)); !r.Hit {
		t.Error("new entry lost")
	}
	if st := tl.Stats(); st.Replacements != 1 {
		t.Errorf("replacements = %d", st.Replacements)
	}
}

func TestWorkingSetBehaviour(t *testing.T) {
	// A working set within the TLB size misses only on the cold pass.
	tl := MustNew(Config{Entries: 64})
	for pass := 0; pass < 3; pass++ {
		for i := addr.VPN(0); i < 64; i++ {
			r := tl.Access(addr.VAOf(i))
			if !r.Hit {
				tl.Insert(base(i, addr.PPN(i)))
			}
		}
	}
	if st := tl.Stats(); st.Misses != 64 {
		t.Errorf("misses = %d, want 64 cold misses", st.Misses)
	}
	// A working set of 65 pages accessed cyclically thrashes LRU.
	tl2 := MustNew(Config{Entries: 64})
	for pass := 0; pass < 3; pass++ {
		for i := addr.VPN(0); i < 65; i++ {
			if r := tl2.Access(addr.VAOf(i)); !r.Hit {
				tl2.Insert(base(i, addr.PPN(i)))
			}
		}
	}
	if st := tl2.Stats(); st.Hits != 0 {
		t.Errorf("hits = %d, cyclic overflow should thrash true LRU", st.Hits)
	}
}

func TestSuperpageEntryCoverage(t *testing.T) {
	tl := MustNew(Config{Kind: Superpage})
	tl.Insert(pte.Entry{VPN: 0x45, PPN: 0x105, Size: addr.Size64K, Kind: pte.KindSuperpage, BlockPPN: 0x100})
	// One entry covers all sixteen pages.
	for i := addr.VPN(0); i < 16; i++ {
		if r := tl.Access(addr.VAOf(0x40 + i)); !r.Hit {
			t.Errorf("page %d missed", i)
		}
	}
	if r := tl.Access(addr.VAOf(0x50)); r.Hit {
		t.Error("page outside superpage hit")
	}
	if ppn, ok := tl.Translate(addr.VAOf(0x4f)); !ok || ppn != 0x10f {
		t.Errorf("Translate = %#x ok=%v", uint64(ppn), ok)
	}
}

func TestSuperpageReducesMisses(t *testing.T) {
	// §4.1/[Tall95]: superpages reduce miss counts dramatically for
	// working sets beyond the TLB reach. 128 blocks of 16 pages each.
	run := func(kind Kind, spKind pte.Kind, size addr.Size) uint64 {
		tl := MustNew(Config{Kind: kind})
		for pass := 0; pass < 3; pass++ {
			for p := addr.VPN(0); p < 128*16; p++ {
				if r := tl.Access(addr.VAOf(p)); !r.Hit {
					if spKind == pte.KindSuperpage {
						basevpn := p &^ 15
						tl.Insert(pte.Entry{VPN: p, PPN: addr.PPN(p), Size: size,
							Kind: pte.KindSuperpage, BlockPPN: addr.PPN(basevpn)})
					} else {
						tl.Insert(base(p, addr.PPN(p)))
					}
				}
			}
		}
		return tl.Stats().Misses
	}
	single := run(SinglePageSize, pte.KindBase, addr.Size4K)
	super := run(Superpage, pte.KindSuperpage, addr.Size64K)
	if super*4 > single {
		t.Errorf("superpage misses %d vs single %d: expected ≥4x reduction", super, single)
	}
}

func TestPartialSubblockEntry(t *testing.T) {
	tl := MustNew(Config{Kind: PartialSubblock})
	// Block 4, pages 0,1,3 resident, properly placed at frames 0x100+.
	tl.Insert(pte.Entry{VPN: 0x41, PPN: 0x101, Kind: pte.KindPartial,
		ValidMask: 0b1011, BlockPPN: 0x100, Size: addr.Size4K})
	for _, c := range []struct {
		vpn addr.VPN
		hit bool
	}{{0x40, true}, {0x41, true}, {0x42, false}, {0x43, true}, {0x44, false}} {
		if r := tl.Access(addr.VAOf(c.vpn)); r.Hit != c.hit {
			t.Errorf("vpn %#x hit=%v want %v", uint64(c.vpn), r.Hit, c.hit)
		}
	}
	if ppn, ok := tl.Translate(addr.VAOf(0x43)); !ok || ppn != 0x103 {
		t.Errorf("Translate = %#x ok=%v", uint64(ppn), ok)
	}
}

func TestPartialSubblockSuperpageAsFullBlock(t *testing.T) {
	tl := MustNew(Config{Kind: PartialSubblock})
	// A 64KB superpage PTE loads as a fully-valid block.
	tl.Insert(pte.Entry{VPN: 0x47, PPN: 0x107, Size: addr.Size64K, Kind: pte.KindSuperpage, BlockPPN: 0x100})
	for i := addr.VPN(0); i < 16; i++ {
		if r := tl.Access(addr.VAOf(0x40 + i)); !r.Hit {
			t.Errorf("page %d missed", i)
		}
	}
}

func TestPartialSubblockImproperPlacementFallsBack(t *testing.T) {
	tl := MustNew(Config{Kind: PartialSubblock})
	// Base PTE: single-page entry; neighbors miss.
	tl.Insert(base(0x41, 0x9999))
	if r := tl.Access(addr.VAOf(0x41)); !r.Hit {
		t.Error("own page missed")
	}
	if r := tl.Access(addr.VAOf(0x42)); r.Hit {
		t.Error("neighbor hit through single-page entry")
	}
	if ppn, ok := tl.Translate(addr.VAOf(0x41)); !ok || ppn != 0x9999 {
		t.Errorf("Translate = %#x ok=%v", uint64(ppn), ok)
	}
}

func TestCompleteSubblockBlockVsSubblockMisses(t *testing.T) {
	tl := MustNew(Config{Kind: CompleteSubblock})
	// First touch of a block: block miss.
	r := tl.Access(addr.VAOf(0x40))
	if r.Hit || r.SubblockMiss {
		t.Errorf("first access = %+v", r)
	}
	tl.Insert(base(0x40, 0x100))
	// Another page of the same block: subblock miss, no replacement.
	r = tl.Access(addr.VAOf(0x45))
	if r.Hit || !r.SubblockMiss {
		t.Errorf("subblock access = %+v", r)
	}
	tl.Insert(base(0x45, 0x999)) // arbitrary frame: no placement rule
	if r := tl.Access(addr.VAOf(0x45)); !r.Hit {
		t.Error("miss after subblock fill")
	}
	if ppn, ok := tl.Translate(addr.VAOf(0x45)); !ok || ppn != 0x999 {
		t.Errorf("Translate = %#x ok=%v", uint64(ppn), ok)
	}
	st := tl.Stats()
	if st.BlockMisses != 1 || st.SubblockMisses != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Replacements != 0 {
		t.Errorf("replacements = %d", st.Replacements)
	}
}

func TestCompleteSubblockPrefetchEliminatesSubblockMisses(t *testing.T) {
	// §4.4: loading all of a block's mappings on a block miss removes
	// subblock misses entirely for a static page table.
	mkEntries := func(blockBase addr.VPN) []pte.Entry {
		var out []pte.Entry
		for i := addr.VPN(0); i < 16; i++ {
			out = append(out, base(blockBase+i, addr.PPN(blockBase+i)))
		}
		return out
	}
	tl := MustNew(Config{Kind: CompleteSubblock})
	for pass := 0; pass < 2; pass++ {
		for p := addr.VPN(0); p < 32*16; p++ {
			if r := tl.Access(addr.VAOf(p)); !r.Hit {
				vpbn, _ := addr.BlockSplit(p, 4)
				tl.InsertBlock(vpbn, mkEntries(p&^15))
			}
		}
	}
	st := tl.Stats()
	if st.SubblockMisses != 0 {
		t.Errorf("subblock misses = %d with prefetch", st.SubblockMisses)
	}
	if st.BlockMisses != 32 {
		t.Errorf("block misses = %d, want 32 cold", st.BlockMisses)
	}
}

func TestInsertBlockOnWrongKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	MustNew(Config{}).InsertBlock(0, nil)
}

func TestFlush(t *testing.T) {
	tl := MustNew(Config{})
	tl.Insert(base(1, 1))
	tl.Flush()
	if r := tl.Access(addr.VAOf(1)); r.Hit {
		t.Error("hit after flush")
	}
}

func TestResetStats(t *testing.T) {
	tl := MustNew(Config{})
	tl.Access(0)
	tl.ResetStats()
	if st := tl.Stats(); st.Accesses != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestMissRatio(t *testing.T) {
	var s Stats
	if s.MissRatio() != 0 {
		t.Error("zero-access ratio")
	}
	s = Stats{Accesses: 10, Misses: 3}
	if s.MissRatio() != 0.3 {
		t.Errorf("ratio = %v", s.MissRatio())
	}
}

func TestKindString(t *testing.T) {
	for _, k := range []Kind{SinglePageSize, Superpage, PartialSubblock, CompleteSubblock, Kind(9)} {
		if k.String() == "" {
			t.Errorf("Kind(%d) empty", k)
		}
	}
}

func TestMixedSizesInSuperpageTLB(t *testing.T) {
	tl := MustNew(Config{Kind: Superpage, Entries: 4})
	tl.Insert(base(0x1000, 0x1))
	tl.Insert(pte.Entry{VPN: 0x40, PPN: 0x100, Size: addr.Size64K, Kind: pte.KindSuperpage, BlockPPN: 0x100})
	tl.Insert(pte.Entry{VPN: 0x2000, PPN: 0x2000, Size: addr.Size1M, Kind: pte.KindSuperpage, BlockPPN: 0x2000})
	if r := tl.Access(addr.VAOf(0x1000)); !r.Hit {
		t.Error("base entry lost")
	}
	if r := tl.Access(addr.VAOf(0x4f)); !r.Hit {
		t.Error("64KB entry lost")
	}
	if r := tl.Access(addr.VAOf(0x20ff)); !r.Hit {
		t.Error("1MB entry lost")
	}
	if ppn, ok := tl.Translate(addr.VAOf(0x20ff)); !ok || ppn != 0x20ff {
		t.Errorf("1MB Translate = %#x", uint64(ppn))
	}
}

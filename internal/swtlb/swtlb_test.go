package swtlb

import (
	"fmt"
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/core"
	"clusterpt/internal/hashed"
	"clusterpt/internal/mmu"
	"clusterpt/internal/pte"
)

// Aliases keep the hashed-backing test terse.
type clusterptVPN = addr.VPN
type clusterptPPN = addr.PPN

func newBacked(t *testing.T, cfg Config) (*Cache, *core.Table) {
	t.Helper()
	backing := core.MustNew(core.Config{})
	c, err := New(cfg, backing)
	if err != nil {
		t.Fatal(err)
	}
	return c, backing
}

func TestConfigValidation(t *testing.T) {
	backing := core.MustNew(core.Config{})
	bad := []Config{
		{Entries: 100},
		{Entries: 8, Ways: 3},
		{LogSBF: 9},
	}
	for _, cfg := range bad {
		if _, err := New(cfg, backing); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := New(Config{}, nil); err == nil {
		t.Error("nil backing accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic")
		}
	}()
	MustNew(Config{Entries: 5}, backing)
}

func TestHitCostsOneLine(t *testing.T) {
	c, _ := newBacked(t, Config{Entries: 64})
	if err := c.Map(0x41, 0x77, pte.AttrR); err != nil {
		t.Fatal(err)
	}
	// First lookup misses and fills.
	e, cost, ok := c.Lookup(0x41034)
	if !ok || e.PPN != 0x77 {
		t.Fatalf("entry = %v ok=%v", e, ok)
	}
	if cost.Probes < 2 {
		t.Errorf("miss cost = %+v, want probe + backing walk", cost)
	}
	// Second lookup hits: exactly one line.
	e, cost, ok = c.Lookup(0x41034)
	if !ok || e.PPN != 0x77 {
		t.Fatalf("hit entry = %v ok=%v", e, ok)
	}
	if cost.Lines != 1 || cost.Probes != 1 {
		t.Errorf("hit cost = %+v, want 1 line", cost)
	}
	st := c.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestMissOnUnmappedFaults(t *testing.T) {
	c, _ := newBacked(t, Config{Entries: 64})
	if _, _, ok := c.Lookup(0x99000); ok {
		t.Error("unmapped hit")
	}
}

func TestEvictionLRU(t *testing.T) {
	// Direct-mapped with 4 sets: VPNs 0 and 4 collide.
	c, _ := newBacked(t, Config{Entries: 4, Ways: 1})
	c.Map(0, 1, pte.AttrR)
	c.Map(4, 2, pte.AttrR)
	c.Lookup(addr.VAOf(0)) // fill
	c.Lookup(addr.VAOf(4)) // evicts 0
	_, _, _ = c.Lookup(addr.VAOf(0))
	st := c.CacheStats()
	if st.Misses != 3 {
		t.Errorf("misses = %d, want 3 (conflict evictions)", st.Misses)
	}
	// Two ways eliminate the conflict.
	c2, _ := newBacked(t, Config{Entries: 4, Ways: 2})
	c2.Map(0, 1, pte.AttrR)
	c2.Map(4, 2, pte.AttrR)
	c2.Lookup(addr.VAOf(0))
	c2.Lookup(addr.VAOf(4))
	c2.Lookup(addr.VAOf(0))
	c2.Lookup(addr.VAOf(4))
	if st := c2.CacheStats(); st.Hits != 2 || st.Misses != 2 {
		t.Errorf("2-way stats = %+v", st)
	}
}

// TestVictimOrder pins the replacement rule on the flat slot layout at
// 1, 2 and 4 ways: a fill takes its set's first invalid way, else the
// least recently used one. Every fill follows a missing Access, as in
// a hierarchy, so each slot's LRU stamp is distinct — except in the
// last step, which pins the tie-break.
func TestVictimOrder(t *testing.T) {
	for _, ways := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("ways=%d", ways), func(t *testing.T) {
			// Two sets; even pages all land in set 0.
			c := MustNewLevel(Config{Entries: 2 * ways, Ways: ways})
			way := func(page int) int {
				for i, ent := range c.slots[:ways] {
					if ent.valid && ent.tag == uint64(2*page) {
						return i
					}
				}
				return -1
			}
			fill := func(page, wantWay int) {
				t.Helper()
				va := addr.VAOf(addr.VPN(2 * page))
				if c.Access(va).Hit {
					t.Fatalf("page %d hit before its fill", page)
				}
				c.Insert(mmu.BaseEntry(addr.VPN(2 * page)))
				if got := way(page); got != wantWay {
					t.Fatalf("page %d filled way %d, want %d", page, got, wantWay)
				}
			}
			// Empty set: the ways fill in index order.
			for p := 0; p < ways; p++ {
				fill(p, p)
			}
			// Touch the ways in reverse, so way ways-1 is least recent;
			// the next fills evict in that order.
			for p := ways - 1; p >= 0; p-- {
				if !c.Access(addr.VAOf(addr.VPN(2 * p))).Hit {
					t.Fatalf("page %d missed", p)
				}
			}
			for k := 0; k < ways; k++ {
				fill(ways+k, ways-1-k)
			}
			// An invalid way beats the least recently used one, even when
			// it held the most recent page; the lowest invalid goes first.
			next := 2 * ways
			c.Invalidate(addr.VPN(2 * (2*ways - 1))) // way 0, most recent
			fill(next, 0)
			next++
			if ways == 4 {
				c.Invalidate(addr.VPN(2 * (ways + 1))) // way 2
				c.Invalidate(addr.VPN(2 * (ways + 2))) // way 1
				fill(next, 1)
				fill(next+1, 2)
			}
			// Fills with no Access between them (a block refill) share
			// one stamp; among equal stamps the lowest way goes first.
			c.InvalidateAll()
			for p := 0; p <= ways; p++ {
				c.Insert(mmu.BaseEntry(addr.VPN(2 * (next + 2 + p))))
			}
			if got := way(next + 2 + ways); got != 0 {
				t.Errorf("tied fill took way %d, want 0", got)
			}
		})
	}
}

func TestUnmapInvalidates(t *testing.T) {
	c, _ := newBacked(t, Config{Entries: 64})
	c.Map(0x41, 0x77, pte.AttrR)
	c.Lookup(addr.VAOf(0x41))
	if err := c.Unmap(0x41); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Lookup(addr.VAOf(0x41)); ok {
		t.Error("stale cached translation survived unmap")
	}
}

func TestProtectRangeInvalidates(t *testing.T) {
	c, _ := newBacked(t, Config{Entries: 64})
	c.Map(0x41, 0x77, pte.AttrR|pte.AttrW)
	c.Lookup(addr.VAOf(0x41))
	if _, err := c.ProtectRange(addr.PageRange(addr.VAOf(0x41), 1), 0, pte.AttrW); err != nil {
		t.Fatal(err)
	}
	e, _, ok := c.Lookup(addr.VAOf(0x41))
	if !ok || e.Attr.Has(pte.AttrW) {
		t.Errorf("entry = %v ok=%v, stale attributes served", e, ok)
	}
}

func TestInvalidateAll(t *testing.T) {
	c, _ := newBacked(t, Config{Entries: 64})
	c.Map(0x41, 0x77, pte.AttrR)
	c.Lookup(addr.VAOf(0x41))
	c.InvalidateAll()
	c.Lookup(addr.VAOf(0x41))
	if st := c.CacheStats(); st.Misses != 2 {
		t.Errorf("misses = %d", st.Misses)
	}
}

func TestClusteredEntriesPrefetchBlock(t *testing.T) {
	// §7: a software TLB with clustered entries caches the whole block;
	// neighbors hit without touching the backing table.
	c, backing := newBacked(t, Config{Entries: 64, Clustered: true})
	for i := addr.VPN(0); i < 16; i++ {
		backing.Map(0x40+i, 0x100+addr.PPN(i), pte.AttrR)
	}
	c.Lookup(addr.VAOf(0x41)) // miss fills the block
	for i := addr.VPN(0); i < 16; i++ {
		e, cost, ok := c.Lookup(addr.VAOf(0x40 + i))
		if !ok || e.PPN != 0x100+addr.PPN(i) {
			t.Fatalf("page %d = %v ok=%v", i, e, ok)
		}
		if cost.Probes != 1 {
			t.Errorf("page %d cost = %+v, want swTLB hit", i, cost)
		}
	}
	if st := c.CacheStats(); st.Misses != 1 || st.Hits != 16 {
		t.Errorf("stats = %+v", st)
	}
}

func TestClusteredPartialBlockHoles(t *testing.T) {
	c, backing := newBacked(t, Config{Entries: 64, Clustered: true})
	backing.Map(0x40, 0x100, pte.AttrR)
	c.Lookup(addr.VAOf(0x40))
	if _, _, ok := c.Lookup(addr.VAOf(0x41)); ok {
		t.Error("hole hit through clustered swTLB entry")
	}
}

func TestClusteredInvalidateSinglePage(t *testing.T) {
	c, backing := newBacked(t, Config{Entries: 64, Clustered: true})
	for i := addr.VPN(0); i < 4; i++ {
		backing.Map(0x40+i, 0x100+addr.PPN(i), pte.AttrR)
	}
	c.Lookup(addr.VAOf(0x40))
	c.Unmap(0x41)
	if _, _, ok := c.Lookup(addr.VAOf(0x41)); ok {
		t.Error("stale block word served")
	}
	// Other pages in the block still hit.
	if _, cost, ok := c.Lookup(addr.VAOf(0x42)); !ok || cost.Probes != 1 {
		t.Errorf("neighbor cost = %+v ok=%v", cost, ok)
	}
}

func TestWorksOverHashedBacking(t *testing.T) {
	backing := hashed.MustNew(hashed.Config{})
	c := MustNew(Config{Entries: 64}, backing)
	c.Map(0x41, 0x9, pte.AttrR)
	if e, _, ok := c.Lookup(addr.VAOf(0x41)); !ok || e.PPN != 0x9 {
		t.Errorf("entry = %v ok=%v", e, ok)
	}
	if c.Name() != "swtlb+hashed" {
		t.Errorf("Name = %q", c.Name())
	}
}

func TestSizeIncludesFixedArray(t *testing.T) {
	c, _ := newBacked(t, Config{Entries: 128})
	sz := c.Size()
	if sz.FixedBytes < 128*16 {
		t.Errorf("fixed bytes = %d", sz.FixedBytes)
	}
	cc, _ := newBacked(t, Config{Entries: 128, Clustered: true})
	if cc.Size().FixedBytes <= sz.FixedBytes {
		t.Error("clustered entries should be larger")
	}
}

func TestSuperpageBackingCachedPerPage(t *testing.T) {
	c, backing := newBacked(t, Config{Entries: 64})
	backing.MapSuperpage(0x40, 0x100, pte.AttrR, addr.Size64K)
	e, _, ok := c.Lookup(addr.VAOf(0x45))
	if !ok || e.PPN != 0x105 {
		t.Fatalf("entry = %v ok=%v", e, ok)
	}
	// Cached hit returns the same frame.
	e, cost, ok := c.Lookup(addr.VAOf(0x45))
	if !ok || e.PPN != 0x105 || cost.Probes != 1 {
		t.Errorf("hit = %v cost=%+v ok=%v", e, cost, ok)
	}
}

func TestClusteredFillWithoutBlockReader(t *testing.T) {
	// A backing table without BlockReader (the multi-table hashed
	// organization) still works under clustered swTLB entries: only the
	// faulting page fills; neighbors miss to the backing table.
	backing := hashed.MustNewMulti(hashed.Config{}, 4, hashed.BaseFirst)
	for i := clusterptVPN(0); i < 4; i++ {
		if err := backing.Map(0x40+i, 0x100+clusterptPPN(i), pte.AttrR); err != nil {
			t.Fatal(err)
		}
	}
	c := MustNew(Config{Entries: 64, Clustered: true}, backing)
	if _, _, ok := c.Lookup(addr.VAOf(0x41)); !ok {
		t.Fatal("first lookup missed")
	}
	// Neighbor not gathered: next lookup goes to the backing table but
	// still succeeds and fills its slot.
	e, _, ok := c.Lookup(addr.VAOf(0x42))
	if !ok || e.PPN != 0x102 {
		t.Fatalf("neighbor = %v ok=%v", e, ok)
	}
	st := c.CacheStats()
	if st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (no block gather without BlockReader)", st.Misses)
	}
}

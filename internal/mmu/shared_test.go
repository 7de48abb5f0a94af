package mmu_test

import (
	"sync"
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/mmu"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/tlb"
)

// TestSharedConcurrentTranslate hammers one Shared hierarchy from many
// goroutines — translates, invalidates, shootdowns — and then checks
// the counters still add up. Run under -race (CI's default), this is
// the data-race gate for the //ptlint:guardedby annotations on Shared
// and for the lock-free swtlb.Cache L2 behind it.
func TestSharedConcurrentTranslate(t *testing.T) {
	l1 := tlb.MustNew(tlb.Config{Kind: tlb.SinglePageSize, Entries: 8})
	sh := mmu.NewShared(mmu.NewHierarchy(l1).AddLevel(mmu.LevelSpec{Level: newL2(t, 64).AsLevel()}))

	const workers = 8
	const opsPer = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				vpn := addr.VPN((w*31 + i) % 128)
				va := addr.VAOf(vpn)
				switch {
				case i%97 == 0:
					sh.InvalidateBatch([]addr.VPN{vpn})
				case i%193 == 0:
					sh.Shootdown()
				default:
					sh.Translate(va, mmu.BaseEntry(vpn), pagetable.WalkCost{Lines: 4, Nodes: 4, Probes: 1})
				}
			}
		}(w)
	}
	wg.Wait()

	s := sh.Stats()
	if s.Hits+s.Misses != s.Accesses {
		t.Fatalf("composed stats do not add up after concurrent drive: %+v", s)
	}
	if len(sh.LevelStats()) != 2 {
		t.Fatalf("level stats length %d, want 2", len(sh.LevelStats()))
	}
}

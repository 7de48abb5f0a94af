package service_test

// The allocation-free contracts of the service's expected outcomes,
// checked across organizations: every table answers a conflict with the
// bare pagetable sentinel, every Lookup entry survives the cache slot's
// packed encoding, and neither a conflicting write nor a cache fill
// allocates.

import (
	"errors"
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/core"
	"clusterpt/internal/forward"
	"clusterpt/internal/hashed"
	"clusterpt/internal/linear"
	"clusterpt/internal/memcost"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
	"clusterpt/internal/service"
	"clusterpt/internal/sim"
)

// everyOrg is one build of each page-table organization in the tree.
var everyOrg = []struct {
	name  string
	build func() pagetable.PageTable
}{
	{"clustered", func() pagetable.PageTable { return core.MustNew(core.Config{Buckets: 256}) }},
	{"clustered-tiered", func() pagetable.PageTable { return core.MustNewTiered(core.Config{Buckets: 256}) }},
	{"hashed", func() pagetable.PageTable { return hashed.MustNew(hashed.Config{Buckets: 256}) }},
	{"hashed-multi", func() pagetable.PageTable {
		return hashed.MustNewMulti(hashed.Config{Buckets: 256}, 4, hashed.BaseFirst)
	}},
	{"hashed-spindex", func() pagetable.PageTable { return hashed.MustNewSPIndex(hashed.Config{Buckets: 256}, 4) }},
	{"hashed-inverted", func() pagetable.PageTable { return hashed.MustNewInverted(hashed.Config{Buckets: 256}, 1<<12) }},
	{"linear", func() pagetable.PageTable { return linear.MustNew(linear.Config{}) }},
	{"forward", func() pagetable.PageTable { return forward.MustNew(forward.Config{}) }},
	{"forward-guarded", func() pagetable.PageTable { return forward.MustNewGuarded(forward.GuardedConfig{}) }},
}

// The layout every organization is loaded with: eight base pages, one
// 64KB superpage and one partial-subblock block (the last two where the
// organization stores those formats), all 16-page aligned.
const (
	basePage  = addr.VPN(0x4240)
	basePPN   = addr.PPN(0x100)
	superVPN  = addr.VPN(0x1000)
	superPPN  = addr.PPN(0x200)
	psbVPBN   = addr.VPBN(0x30)
	psbPPN    = addr.PPN(0x400)
	psbValid  = uint16(0x0f35)
	blockSize = 16
)

func load(t *testing.T, tab pagetable.PageTable) (super, partial bool) {
	t.Helper()
	for i := addr.VPN(0); i < 8; i++ {
		if err := tab.Map(basePage+i, basePPN+addr.PPN(i), pte.AttrR|pte.AttrW); err != nil {
			t.Fatalf("Map(%#x): %v", uint64(basePage+i), err)
		}
	}
	if sm, ok := tab.(pagetable.SuperpageMapper); ok {
		if err := sm.MapSuperpage(superVPN, superPPN, pte.AttrR|pte.AttrX, addr.Size64K); err != nil {
			t.Fatalf("MapSuperpage: %v", err)
		}
		super = true
	}
	if pm, ok := tab.(pagetable.PartialMapper); ok {
		if err := pm.MapPartial(psbVPBN, psbPPN, pte.AttrR, psbValid); err != nil {
			t.Fatalf("MapPartial: %v", err)
		}
		partial = true
	}
	return super, partial
}

// TestConflictSentinels pins the outcome the service's racing writers
// expect: a conflicting map is exactly pagetable.ErrAlreadyMapped and
// an unmap of a hole exactly pagetable.ErrNotMapped — no wrapping, so
// the expected outcome allocates nothing.
func TestConflictSentinels(t *testing.T) {
	for _, org := range everyOrg {
		t.Run(org.name, func(t *testing.T) {
			tab := org.build()
			super, partial := load(t, tab)
			mapped := []addr.VPN{basePage, basePage + 7}
			if super {
				mapped = append(mapped, superVPN, superVPN+blockSize-1)
			}
			if partial {
				mapped = append(mapped, addr.BlockJoin(psbVPBN, 0, 4), addr.BlockJoin(psbVPBN, 11, 4))
			}
			for _, vpn := range mapped {
				if err := tab.Map(vpn, 0x900, pte.AttrR); err != pagetable.ErrAlreadyMapped {
					t.Errorf("Map(%#x) over a mapping = %v, want exactly %v", uint64(vpn), err, pagetable.ErrAlreadyMapped)
				}
			}
			if super {
				sm := tab.(pagetable.SuperpageMapper)
				if err := sm.MapSuperpage(superVPN, superPPN, pte.AttrR, addr.Size64K); err != pagetable.ErrAlreadyMapped {
					t.Errorf("MapSuperpage over a superpage = %v, want exactly %v", err, pagetable.ErrAlreadyMapped)
				}
			}
			for _, vpn := range []addr.VPN{basePage + 8, 0x7777, addr.BlockJoin(psbVPBN, 1, 4)} {
				if err := tab.Unmap(vpn); err != pagetable.ErrNotMapped {
					t.Errorf("Unmap(%#x) of a hole = %v, want exactly %v", uint64(vpn), err, pagetable.ErrNotMapped)
				}
			}
			if err := tab.Unmap(basePage); err != nil {
				t.Fatalf("Unmap(%#x): %v", uint64(basePage), err)
			}
			if err := tab.Unmap(basePage); err != pagetable.ErrNotMapped {
				t.Errorf("second Unmap(%#x) = %v, want exactly %v", uint64(basePage), err, pagetable.ErrNotMapped)
			}
		})
	}
}

// TestSlotRoundTripsEveryLookup checks that every organization's Lookup
// entry — base, superpage and partial-subblock — survives the cache
// slot's packed encoding exactly, so the cache never refuses a fill.
func TestSlotRoundTripsEveryLookup(t *testing.T) {
	for _, org := range everyOrg {
		t.Run(org.name, func(t *testing.T) {
			tab := org.build()
			super, partial := load(t, tab)
			seen := map[pte.Kind]int{}
			for _, lo := range []addr.VPN{basePage &^ (blockSize - 1), superVPN, addr.BlockJoin(psbVPBN, 0, 4)} {
				for vpn := lo; vpn < lo+blockSize; vpn++ {
					e, _, ok := tab.Lookup(addr.VAOf(vpn))
					if !ok {
						continue
					}
					seen[e.Kind]++
					got, ok := service.SlotRoundTrip(e)
					if !ok {
						t.Errorf("vpn %#x: slot refused %v", uint64(vpn), e)
					} else if got != e {
						t.Errorf("vpn %#x: slot returned %+v, table %+v", uint64(vpn), got, e)
					}
				}
			}
			if seen[pte.KindBase] == 0 {
				t.Error("no base entry looked up")
			}
			if super && seen[pte.KindSuperpage] == 0 {
				t.Error("superpage mapped but no superpage entry looked up")
			}
			if partial && seen[pte.KindPartial] == 0 {
				t.Error("partial-subblock block mapped but no partial entry looked up")
			}
		})
	}
}

// TestConflictOutcomesAllocFree pins 0 allocs/op on the outcomes the
// replication experiment and the op storms expect and drop: a
// conflicting Map and an Unmap of a hole, through a replicated service,
// for every organization the churn and replication experiments compare.
func TestConflictOutcomesAllocFree(t *testing.T) {
	for _, v := range sim.ChurnVariants() {
		t.Run(v.Name, func(t *testing.T) {
			s, err := service.New(service.Config{Stripes: 16, CacheSlots: 64, Replicas: 2},
				func(int) (pagetable.PageTable, error) { return v.New(memcost.NewModel(256)), nil })
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Map(basePage, basePPN, pte.AttrR); err != nil {
				t.Fatal(err)
			}
			node := s.Node(1)
			for _, op := range []struct {
				name string
				do   func() error
				want error
			}{
				{"Service.Map conflict", func() error { return s.Map(basePage, basePPN+1, pte.AttrR) }, pagetable.ErrAlreadyMapped},
				{"Node.Map conflict", func() error { return node.Map(basePage, basePPN+1, pte.AttrR) }, pagetable.ErrAlreadyMapped},
				{"Service.Unmap hole", func() error { return s.Unmap(basePage + 1) }, pagetable.ErrNotMapped},
				{"Node.Unmap hole", func() error { return node.Unmap(basePage + 1) }, pagetable.ErrNotMapped},
			} {
				var err error
				allocs := testing.AllocsPerRun(100, func() { err = op.do() })
				if !errors.Is(err, op.want) {
					t.Errorf("%s = %v, want %v", op.name, err, op.want)
				}
				if allocs != 0 {
					t.Errorf("%s allocates %.1f allocs/op, want 0", op.name, allocs)
				}
			}
		})
	}
}

package mm

import (
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/core"
	"clusterpt/internal/hashed"
	"clusterpt/internal/linear"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
	"clusterpt/internal/trace"
)

func newSpace(t *testing.T, pt pagetable.PageTable, frames uint64, pol Policy) *AddressSpace {
	t.Helper()
	return NewAddressSpace(pt, MustNewAllocator(frames, 4), pol)
}

func TestReserveAndTouch(t *testing.T) {
	s := newSpace(t, core.MustNew(core.Config{}), 1024, Policy{})
	if err := s.Reserve(addr.PageRange(0x40000, 32), pte.AttrR|pte.AttrW, "heap"); err != nil {
		t.Fatal(err)
	}
	faulted, err := s.Touch(0x40010)
	if err != nil || !faulted {
		t.Fatalf("faulted=%v err=%v", faulted, err)
	}
	// Second touch: no fault.
	faulted, err = s.Touch(0x40010)
	if err != nil || faulted {
		t.Fatalf("refault=%v err=%v", faulted, err)
	}
	if _, err := s.Touch(0x99999000); err == nil {
		t.Error("fault outside VMA accepted")
	}
	if s.Stats().Faults != 1 {
		t.Errorf("stats = %+v", s.Stats())
	}
}

func TestReserveValidation(t *testing.T) {
	s := newSpace(t, core.MustNew(core.Config{}), 1024, Policy{})
	if err := s.Reserve(addr.Range{}, pte.AttrR, "empty"); err == nil {
		t.Error("empty VMA accepted")
	}
	s.Reserve(addr.PageRange(0x1000, 4), pte.AttrR, "a")
	if err := s.Reserve(addr.PageRange(0x3000, 4), pte.AttrR, "b"); err == nil {
		t.Error("overlapping VMA accepted")
	}
	if got := s.VMAs(); len(got) != 1 || got[0].Name != "a" {
		t.Errorf("VMAs = %v", got)
	}
}

func TestPopulateCreatesSuperpages(t *testing.T) {
	ct := core.MustNew(core.Config{})
	s := newSpace(t, ct, 4096, Policy{UseSuperpages: true, UsePartial: true})
	r := addr.PageRange(0x100000, 64) // four full blocks
	s.Reserve(r, pte.AttrR|pte.AttrW, "data")
	if err := s.Populate(r); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Superpages != 4 || st.BasePages != 0 {
		t.Errorf("stats = %+v", st)
	}
	// The table stores four compact PTEs: 96 bytes, not 4×144.
	if sz := ct.Size(); sz.PTEBytes != 4*24 || sz.Mappings != 64 {
		t.Errorf("size = %+v", sz)
	}
	// Translations are correct and consecutive within blocks.
	e, _, ok := ct.Lookup(0x100000 + 5*4096)
	if !ok || e.Kind != pte.KindSuperpage {
		t.Errorf("entry = %v ok=%v", e, ok)
	}
}

func TestPopulatePartialBlocksGetPSB(t *testing.T) {
	ct := core.MustNew(core.Config{})
	s := newSpace(t, ct, 4096, Policy{UseSuperpages: true, UsePartial: true})
	// 24 pages: one full block + half a block.
	r := addr.PageRange(0x100000, 24)
	s.Reserve(addr.PageRange(0x100000, 64), pte.AttrR, "data")
	if err := s.Populate(r); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Superpages != 1 || st.PartialPTEs != 1 {
		t.Errorf("stats = %+v", st)
	}
	if sz := ct.Size(); sz.PTEBytes != 2*24 || sz.Mappings != 24 {
		t.Errorf("size = %+v", sz)
	}
}

func TestPopulateBasePagesWhenPolicyOff(t *testing.T) {
	ct := core.MustNew(core.Config{})
	s := newSpace(t, ct, 4096, Policy{})
	r := addr.PageRange(0x100000, 32)
	s.Reserve(r, pte.AttrR, "data")
	if err := s.Populate(r); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.BasePages != 32 || st.Superpages != 0 || st.PartialPTEs != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPopulateSmallRegionStaysBase(t *testing.T) {
	// Dynamic page-size assignment: regions below the threshold keep the
	// 4KB size even with superpages enabled.
	ct := core.MustNew(core.Config{})
	s := newSpace(t, ct, 4096, Policy{
		UseSuperpages: true, PromoteThreshold: 1 << 20,
	})
	r := addr.PageRange(0x100000, 16)
	s.Reserve(r, pte.AttrR, "small")
	if err := s.Populate(r); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Superpages != 0 || st.BasePages != 16 {
		t.Errorf("stats = %+v", st)
	}
}

func TestIncrementalPromotionViaTouch(t *testing.T) {
	// §5: fault pages in one at a time; the last fault of a block
	// triggers promotion to a superpage on a clustered table.
	ct := core.MustNew(core.Config{})
	s := newSpace(t, ct, 4096, Policy{UseSuperpages: true, UsePartial: true})
	r := addr.PageRange(0x200000, 16)
	s.Reserve(r, pte.AttrR, "heap")
	for i := uint64(0); i < 16; i++ {
		if _, err := s.Touch(0x200000 + addr.V(i*4096)); err != nil {
			t.Fatal(err)
		}
	}
	vpbn, _ := addr.BlockSplit(addr.VPNOf(0x200000), 4)
	if k, ok := ct.BlockKind(vpbn); !ok || k != pte.KindSuperpage {
		t.Errorf("BlockKind = %v ok=%v", k, ok)
	}
	if s.Stats().Promotions == 0 {
		t.Error("no promotions recorded")
	}
}

func TestPromotionRespectsPolicy(t *testing.T) {
	ct := core.MustNew(core.Config{})
	s := newSpace(t, ct, 4096, Policy{UseSuperpages: false, UsePartial: false, PromoteThreshold: 1})
	r := addr.PageRange(0x200000, 16)
	s.Reserve(r, pte.AttrR, "heap")
	for i := uint64(0); i < 16; i++ {
		s.Touch(0x200000 + addr.V(i*4096))
	}
	vpbn, _ := addr.BlockSplit(addr.VPNOf(0x200000), 4)
	if k, _ := ct.BlockKind(vpbn); k != pte.KindBase {
		t.Errorf("BlockKind = %v with promotion disabled", k)
	}
}

func TestPopulateOverHashedMulti(t *testing.T) {
	mt := hashed.MustNewMulti(hashed.Config{}, 4, hashed.BaseFirst)
	s := newSpace(t, mt, 4096, Policy{UseSuperpages: true, UsePartial: true})
	r := addr.PageRange(0x100000, 32)
	s.Reserve(r, pte.AttrR, "data")
	if err := s.Populate(r); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Superpages != 2 {
		t.Errorf("stats = %+v", st)
	}
	if e, _, ok := mt.Lookup(0x100000); !ok || e.Kind != pte.KindSuperpage {
		t.Errorf("entry = %v ok=%v", e, ok)
	}
}

func TestPopulateOverLinearReplicate(t *testing.T) {
	lt := linear.MustNew(linear.Config{})
	s := newSpace(t, lt, 4096, Policy{UseSuperpages: true})
	r := addr.PageRange(0x100000, 16)
	s.Reserve(r, pte.AttrR, "data")
	if err := s.Populate(r); err != nil {
		t.Fatal(err)
	}
	// Replication: superpage entries, but 16 mappings' worth of sites.
	if e, _, ok := lt.Lookup(0x100000 + 7*4096); !ok || e.Kind != pte.KindSuperpage {
		t.Errorf("entry = %v ok=%v", e, ok)
	}
}

func TestUnmapRangeFreesFrames(t *testing.T) {
	ct := core.MustNew(core.Config{})
	s := newSpace(t, ct, 1024, Policy{UseSuperpages: true, UsePartial: true})
	r := addr.PageRange(0x100000, 40)
	s.Reserve(r, pte.AttrR, "data")
	if err := s.Populate(r); err != nil {
		t.Fatal(err)
	}
	free := s.Allocator().FreeFrames()
	if err := s.UnmapRange(r); err != nil {
		t.Fatal(err)
	}
	if got := s.Allocator().FreeFrames(); got != free+40 {
		t.Errorf("free = %d, want %d", got, free+40)
	}
	if sz := ct.Size(); sz.Mappings != 0 {
		t.Errorf("table size = %+v", sz)
	}
	if len(s.VMAs()) != 0 {
		t.Errorf("VMAs = %v", s.VMAs())
	}
}

func TestUnmapRangeOverLinear(t *testing.T) {
	lt := linear.MustNew(linear.Config{})
	s := newSpace(t, lt, 1024, Policy{UseSuperpages: true})
	r := addr.PageRange(0x100000, 16)
	s.Reserve(r, pte.AttrR, "data")
	if err := s.Populate(r); err != nil {
		t.Fatal(err)
	}
	if err := s.UnmapRange(r); err != nil {
		t.Fatal(err)
	}
	if sz := lt.Size(); sz.Mappings != 0 {
		t.Errorf("size = %+v", sz)
	}
}

func TestProtectDelegates(t *testing.T) {
	ct := core.MustNew(core.Config{})
	s := newSpace(t, ct, 1024, Policy{})
	r := addr.PageRange(0x100000, 16)
	s.Reserve(r, pte.AttrR|pte.AttrW, "data")
	s.Populate(r)
	if _, err := s.Protect(r, 0, pte.AttrW); err != nil {
		t.Fatal(err)
	}
	e, _, _ := ct.Lookup(0x100000)
	if e.Attr.Has(pte.AttrW) {
		t.Error("still writable")
	}
	if s.ResidentPages() != 16 {
		t.Errorf("resident = %d", s.ResidentPages())
	}
}

func TestPopulateUnderMemoryPressureFallsBack(t *testing.T) {
	// Only 32 frames: reservations run out; population still succeeds
	// with base pages and no placement for later blocks.
	ct := core.MustNew(core.Config{})
	s := newSpace(t, ct, 32, Policy{UseSuperpages: true, UsePartial: true})
	r := addr.PageRange(0x100000, 32)
	s.Reserve(r, pte.AttrR, "data")
	if err := s.Populate(r); err != nil {
		t.Fatal(err)
	}
	if s.ResidentPages() != 32 {
		t.Errorf("resident = %d", s.ResidentPages())
	}
	if s.Allocator().FreeFrames() != 0 {
		t.Errorf("free = %d", s.Allocator().FreeFrames())
	}
}

func TestPopulateErrors(t *testing.T) {
	s := newSpace(t, core.MustNew(core.Config{}), 64, Policy{})
	if err := s.Populate(addr.PageRange(0x5000, 4)); err == nil {
		t.Error("populate outside VMA accepted")
	}
	s.Reserve(addr.PageRange(0x5000, 4), pte.AttrR, "a")
	if err := s.Populate(addr.PageRange(0x5000, 8)); err == nil {
		t.Error("populate beyond VMA accepted")
	}
}

func TestForkCopiesLayoutWithFreshFrames(t *testing.T) {
	parent := newSpace(t, core.MustNew(core.Config{}), 4096,
		Policy{UseSuperpages: true, UsePartial: true})
	r := addr.PageRange(0x100000, 40) // 2 full blocks + half a block
	parent.Reserve(r, pte.AttrR|pte.AttrW, "heap")
	if err := parent.Populate(addr.PageRange(0x100000, 36)); err != nil {
		t.Fatal(err)
	}

	childPT := core.MustNew(core.Config{})
	child, err := parent.Fork(childPT)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := child.ResidentPages(), parent.ResidentPages(); got != want {
		t.Fatalf("child resident %d, parent %d", got, want)
	}
	// Same coverage, different frames.
	r.Pages(func(vpn addr.VPN) bool {
		pe, _, pok := parent.Table().Lookup(addr.VAOf(vpn))
		ce, _, cok := child.Table().Lookup(addr.VAOf(vpn))
		if pok != cok {
			t.Fatalf("vpn %#x parent=%v child=%v", uint64(vpn), pok, cok)
		}
		if pok && pe.PPN == ce.PPN {
			t.Fatalf("vpn %#x shares frame %#x", uint64(vpn), uint64(pe.PPN))
		}
		return true
	})
	// The child re-formed compact PTEs: full blocks became superpages.
	vpbn, _ := addr.BlockSplit(addr.VPNOf(0x100000), 4)
	if k, ok := childPT.BlockKind(vpbn); !ok || k != pte.KindSuperpage {
		t.Errorf("child block kind = %v ok=%v", k, ok)
	}
	// Teardown of the child leaves the parent intact.
	if err := child.UnmapRange(r); err != nil {
		t.Fatal(err)
	}
	if parent.ResidentPages() != 36 {
		t.Errorf("parent resident = %d after child teardown", parent.ResidentPages())
	}
}

func TestForkFromLinearParent(t *testing.T) {
	parent := newSpace(t, linear.MustNew(linear.Config{}), 1024, Policy{})
	r := addr.PageRange(0x200000, 8)
	parent.Reserve(r, pte.AttrR, "data")
	parent.Populate(r)
	child, err := parent.Fork(core.MustNew(core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if child.ResidentPages() != 8 {
		t.Errorf("child resident = %d", child.ResidentPages())
	}
}

func TestForkUnderMemoryPressure(t *testing.T) {
	// Frames for the parent only: the fork must fail cleanly.
	parent := newSpace(t, core.MustNew(core.Config{}), 48, Policy{})
	r := addr.PageRange(0x100000, 40)
	parent.Reserve(r, pte.AttrR, "big")
	if err := parent.Populate(r); err != nil {
		t.Fatal(err)
	}
	if _, err := parent.Fork(core.MustNew(core.Config{})); err == nil {
		t.Error("fork succeeded beyond physical memory")
	}
}

// TestPartialPTEsMatchTableGeometry populates a gcc snapshot with
// partial-subblock PTEs enabled onto clustered tables whose subblock
// factor differs from the allocator's 16-page blocks. A block number of
// the allocator's geometry names another block in the table's, so such
// tables must get base PTEs: every placed page has to look up to the
// frame it was given.
func TestPartialPTEsMatchTableGeometry(t *testing.T) {
	p, _ := trace.ProfileByName("gcc")
	snap := p.ProcSnapshot(0)
	for _, sbf := range []int{2, 8, 16} {
		ct := core.MustNew(core.Config{SubblockFactor: sbf})
		s := newSpace(t, ct, (snap.MappedPages()*2+79)&^15, Policy{UsePartial: true})
		placed := map[addr.VPN]addr.PPN{}
		s.OnMap = func(vpn addr.VPN, ppn addr.PPN, _ pte.Attr) { placed[vpn] = ppn }
		for _, r := range snap.Regions {
			if err := s.Reserve(r.Range(), r.Spec.Attr, r.Spec.Name); err != nil {
				t.Fatal(err)
			}
			for _, vpn := range r.Pages {
				if err := s.Populate(addr.PageRange(addr.VAOf(vpn), 1)); err != nil {
					t.Fatalf("sbf %d: populate %#x: %v", sbf, uint64(vpn), err)
				}
			}
		}
		if got, want := uint64(len(placed)), snap.MappedPages(); got != want {
			t.Fatalf("sbf %d: %d pages placed, want %d", sbf, got, want)
		}
		for vpn, ppn := range placed {
			e, _, ok := ct.Lookup(addr.VAOf(vpn))
			if !ok || e.PPN != ppn {
				t.Fatalf("sbf %d: page %#x looks up to (%#x, %v), want frame %#x", sbf, uint64(vpn), uint64(e.PPN), ok, uint64(ppn))
			}
		}
		if st := s.Stats(); (sbf == 16) != (st.PartialPTEs > 0) {
			t.Errorf("sbf %d: %d partial-subblock PTEs; want them only in the allocator's geometry", sbf, st.PartialPTEs)
		}
	}
}

package mm

import (
	"fmt"
	"sort"

	"clusterpt/internal/addr"
	"clusterpt/internal/core"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
)

// Policy is the dynamic page-size assignment policy of §6.1: regions at
// least PromoteThreshold long are backed block-at-a-time and promoted to
// superpage PTEs when fully populated and properly placed; partially
// populated, properly-placed blocks become partial-subblock PTEs.
type Policy struct {
	// UseSuperpages enables superpage PTE creation.
	UseSuperpages bool
	// UsePartial enables partial-subblock PTE creation.
	UsePartial bool
	// PromoteThreshold is the minimum region length considered for the
	// 64KB page size; default one page block.
	PromoteThreshold uint64
}

// VMA is one mapped virtual region (segment).
type VMA struct {
	Range addr.Range
	Attr  pte.Attr
	Name  string
}

// SpaceStats counts page-size policy outcomes.
type SpaceStats struct {
	BasePages   uint64 // pages mapped with base PTEs
	Superpages  uint64 // superpage PTEs created
	PartialPTEs uint64 // partial-subblock PTEs created
	Promotions  uint64 // incremental promotions after faults
	Faults      uint64 // demand faults serviced
}

// AddressSpace ties a page table, a physical allocator and the page-size
// policy together: the slice of the operating system the paper's
// simulations modify Solaris to provide. Not safe for concurrent use.
type AddressSpace struct {
	pt     pagetable.PageTable
	alloc  *Allocator
	policy Policy
	logSBF uint
	ns     uint64 // reservation namespace within the shared allocator
	vmas   []VMA
	stats  SpaceStats

	// OnMap, when non-nil, observes every base-page translation this
	// space installs — one call per page of a superpage or partial
	// block, one per demand fault. Differential replays use it to grow
	// a reference model from the allocator's actual frame choices
	// without reading them back through the table under test.
	OnMap func(vpn addr.VPN, ppn addr.PPN, attr pte.Attr)

	// OnUnmap, when non-nil, is the shootdown hook: it observes every
	// base-page translation this space removes — one call per page,
	// including every page of a superpage or replicated compact PTE
	// torn down in one bulk table operation. TLB models and replicated
	// page tables hang precise per-page invalidation off it instead of
	// flushing whole epochs. Demotion does not fire it: a demoted
	// block's translations survive, only their format changes.
	OnUnmap func(vpn addr.VPN)
}

// noteMap reports one installed translation to the OnMap observer.
func (s *AddressSpace) noteMap(vpn addr.VPN, ppn addr.PPN, attr pte.Attr) {
	if s.OnMap != nil {
		s.OnMap(vpn, ppn, attr)
	}
}

// noteUnmap reports one removed translation to the OnUnmap observer.
func (s *AddressSpace) noteUnmap(vpn addr.VPN) {
	if s.OnUnmap != nil {
		s.OnUnmap(vpn)
	}
}

// NewAddressSpace creates an address space over the given table and
// allocator. The allocator's block geometry defines the page-block size.
func NewAddressSpace(pt pagetable.PageTable, alloc *Allocator, policy Policy) *AddressSpace {
	if policy.PromoteThreshold == 0 {
		policy.PromoteThreshold = alloc.sbf * addr.BasePageSize
	}
	return &AddressSpace{
		pt: pt, alloc: alloc, policy: policy,
		logSBF: alloc.logSBF, ns: alloc.NewNamespace(),
	}
}

// Table returns the backing page table.
func (s *AddressSpace) Table() pagetable.PageTable { return s.pt }

// Allocator returns the physical allocator.
func (s *AddressSpace) Allocator() *Allocator { return s.alloc }

// Stats returns policy counters.
func (s *AddressSpace) Stats() SpaceStats { return s.stats }

// VMAs returns the mapped regions, sorted by start address.
func (s *AddressSpace) VMAs() []VMA {
	out := make([]VMA, len(s.vmas))
	copy(out, s.vmas)
	sort.Slice(out, func(i, j int) bool { return out[i].Range.Start < out[j].Range.Start })
	return out
}

// Reserve registers a VMA without populating it; pages fault in on Touch.
func (s *AddressSpace) Reserve(r addr.Range, attr pte.Attr, name string) error {
	if r.Empty() {
		return fmt.Errorf("mm: empty VMA %q", name)
	}
	for _, v := range s.vmas {
		if v.Range.Overlaps(r) {
			return fmt.Errorf("mm: VMA %q overlaps %q", name, v.Name)
		}
	}
	s.vmas = append(s.vmas, VMA{Range: r, Attr: attr, Name: name})
	return nil
}

// vmaFor finds the VMA containing va.
func (s *AddressSpace) vmaFor(va addr.V) (*VMA, bool) {
	for i := range s.vmas {
		if s.vmas[i].Range.Contains(va) {
			return &s.vmas[i], true
		}
	}
	return nil, false
}

// Populate backs every page of r with physical memory, applying the
// page-size policy block by block: fully covered blocks in promotable
// regions are allocated as aligned frame blocks and mapped with one
// superpage PTE; partially covered blocks try partial-subblock PTEs;
// everything else gets base PTEs.
func (s *AddressSpace) Populate(r addr.Range) error {
	vma, ok := s.vmaFor(r.Start)
	if !ok {
		return fmt.Errorf("mm: populate outside any VMA: %v", r)
	}
	if r.End() > vma.Range.End() {
		return fmt.Errorf("mm: populate range %v exceeds VMA %q", r, vma.Name)
	}
	attr := vma.Attr
	promotable := s.policy.UseSuperpages && vma.Range.Len >= s.policy.PromoteThreshold
	sbf := uint64(1) << s.logSBF

	var err error
	r.Blocks(s.logSBF, func(vpbn addr.VPBN, lo, hi uint64) bool {
		full := lo == 0 && hi == sbf-1
		if full && promotable {
			if e := s.populateSuperpageBlock(vpbn, attr); e == nil {
				return true
			}
			// Fall through to base/psb population on any failure
			// (allocator pressure, table limitations).
		}
		err = s.populatePartialBlock(vpbn, lo, hi, attr)
		return err == nil
	})
	return err
}

// populateSuperpageBlock eagerly creates one block-sized superpage.
func (s *AddressSpace) populateSuperpageBlock(vpbn addr.VPBN, attr pte.Attr) error {
	sp, ok := s.pt.(pagetable.SuperpageMapper)
	if !ok {
		return pagetable.ErrUnsupported
	}
	base, err := s.alloc.AllocBlock(s.ns, vpbn)
	if err != nil {
		return err
	}
	vpn := addr.BlockJoin(vpbn, 0, s.logSBF)
	size := addr.Size(uint64(1) << s.logSBF * addr.BasePageSize)
	if err := sp.MapSuperpage(vpn, base, attr, size); err != nil {
		s.freeBlockFrames(base)
		return err
	}
	s.stats.Superpages++
	for i := uint64(0); i < uint64(1)<<s.logSBF; i++ {
		s.noteMap(vpn+addr.VPN(i), base+addr.PPN(i), attr)
	}
	return nil
}

func (s *AddressSpace) freeBlockFrames(base addr.PPN) {
	for i := uint64(0); i < uint64(1)<<s.logSBF; i++ {
		_ = s.alloc.Free(base + addr.PPN(i))
	}
}

// populatePartialBlock backs offsets [lo, hi] of one block, emitting a
// partial-subblock PTE when placement cooperates, base PTEs otherwise.
func (s *AddressSpace) populatePartialBlock(vpbn addr.VPBN, lo, hi uint64, attr pte.Attr) error {
	type got struct {
		boff   uint64
		ppn    addr.PPN
		placed bool
	}
	var pages []got
	for boff := lo; boff <= hi; boff++ {
		vpn := addr.BlockJoin(vpbn, boff, s.logSBF)
		ppn, placed, err := s.alloc.AllocAt(s.ns, vpn)
		if err != nil {
			return err
		}
		pages = append(pages, got{boff, ppn, placed})
	}
	// All placed and the table can store psb PTEs of this block geometry
	// → one compact PTE. A table of another geometry would read vpbn and
	// the valid vector in its own blocks, so it gets base PTEs.
	if s.policy.UsePartial {
		if pm, ok := s.pt.(pagetable.PartialMapper); ok && pm.LogSBF() == s.logSBF && s.logSBF <= 4 {
			allPlaced := true
			var mask uint16
			for _, g := range pages {
				if !g.placed {
					allPlaced = false
					break
				}
				mask |= 1 << g.boff
			}
			if allPlaced && len(pages) > 0 {
				base, ok := s.alloc.ReservationFor(s.ns, vpbn)
				if ok {
					if err := pm.MapPartial(vpbn, base, attr, mask); err == nil {
						s.stats.PartialPTEs++
						for _, g := range pages {
							s.noteMap(addr.BlockJoin(vpbn, g.boff, s.logSBF), g.ppn, attr)
						}
						return nil
					}
				}
			}
		}
	}
	for _, g := range pages {
		vpn := addr.BlockJoin(vpbn, g.boff, s.logSBF)
		if err := s.pt.Map(vpn, g.ppn, attr); err != nil {
			return fmt.Errorf("mm: map %#x: %w", uint64(vpn), err)
		}
		s.stats.BasePages++
		s.noteMap(vpn, g.ppn, attr)
	}
	return nil
}

// Touch services a demand fault at va: it allocates and maps the page if
// absent, then attempts incremental promotion of the block (§5) when the
// table supports it. It reports whether a fault occurred.
func (s *AddressSpace) Touch(va addr.V) (bool, error) {
	vma, ok := s.vmaFor(va)
	if !ok {
		return false, fmt.Errorf("mm: fault outside any VMA at %v", va)
	}
	if _, _, ok := s.pt.Lookup(va); ok {
		return false, nil
	}
	s.stats.Faults++
	vpn := addr.VPNOf(va)
	ppn, _, err := s.alloc.AllocAt(s.ns, vpn)
	if err != nil {
		return false, err
	}
	if err := s.pt.Map(vpn, ppn, vma.Attr); err != nil {
		_ = s.alloc.Free(ppn)
		return false, fmt.Errorf("mm: map %#x: %w", uint64(vpn), err)
	}
	s.stats.BasePages++
	s.noteMap(vpn, ppn, vma.Attr)
	s.maybePromote(vpn, vma)
	return true, nil
}

// maybePromote performs the §5 incremental promotion on clustered page
// tables: when the policy allows and the block's node shows all mappings
// properly placed, replace it with a compact PTE.
func (s *AddressSpace) maybePromote(vpn addr.VPN, vma *VMA) {
	ct, ok := s.pt.(*core.Table)
	if !ok || !s.policy.UseSuperpages && !s.policy.UsePartial {
		return
	}
	if vma.Range.Len < s.policy.PromoteThreshold {
		return
	}
	vpbn, _ := addr.BlockSplit(vpn, ct.LogSBF())
	switch ct.TryPromote(vpbn) {
	case core.PromoteSuperpage:
		if s.policy.UseSuperpages {
			s.stats.Promotions++
			s.stats.Superpages++
		} else {
			ct.Demote(vpbn)
		}
	case core.PromotePartial:
		if s.policy.UsePartial {
			s.stats.Promotions++
			s.stats.PartialPTEs++
		} else {
			ct.Demote(vpbn)
		}
	}
}

// UnmapRange tears down every mapping in r, frees the frames and drops
// VMAs fully inside the range — address-space teardown.
func (s *AddressSpace) UnmapRange(r addr.Range) error {
	if err := s.evict(r); err != nil {
		return err
	}
	// Trim or drop VMAs fully inside the range.
	var keep []VMA
	for _, v := range s.vmas {
		if r.Start <= v.Range.Start && v.Range.End() <= r.End() {
			continue
		}
		keep = append(keep, v)
	}
	s.vmas = keep
	return nil
}

// EvictRange tears down every mapping in r and frees the frames like
// UnmapRange, but keeps the VMAs, so the range can fault or populate
// back in — the reuse primitive dynamic churn (slab recycling,
// semispace flips, fork exits) is built on.
func (s *AddressSpace) EvictRange(r addr.Range) error { return s.evict(r) }

// evict removes every translation in r, demoting covering compact PTEs
// as needed, and returns the frames to the allocator.
func (s *AddressSpace) evict(r addr.Range) error {
	// Gather frames first via the table's own view.
	type mapping struct {
		vpn addr.VPN
		e   pte.Entry
	}
	var mappings []mapping
	switch pt := s.pt.(type) {
	case *core.Table:
		pt.VisitRange(r, func(vpn addr.VPN, e pte.Entry) bool {
			mappings = append(mappings, mapping{vpn, e})
			return true
		})
	default:
		r.Pages(func(vpn addr.VPN) bool {
			if e, _, ok := s.pt.Lookup(addr.VAOf(vpn)); ok {
				mappings = append(mappings, mapping{vpn, e})
			}
			return true
		})
	}
	for _, m := range mappings {
		if err := s.unmapOne(m.vpn, m.e); err != nil {
			return err
		}
		if err := s.alloc.Free(m.e.PPN); err != nil {
			return err
		}
	}
	return nil
}

// TryPromote attempts the §5 incremental promotion of vpn's block under
// the space's policy, for callers replaying promotion pressure (churn
// streams) rather than faulting.
func (s *AddressSpace) TryPromote(vpn addr.VPN) {
	if vma, ok := s.vmaFor(addr.VAOf(vpn)); ok {
		s.maybePromote(vpn, vma)
	}
}

// Demote splits the compact PTE covering vpn's block back into base
// PTEs where the organization supports in-place demotion (clustered
// tables). Translations are unchanged; it reports whether a split
// happened.
func (s *AddressSpace) Demote(vpn addr.VPN) bool {
	ct, ok := s.pt.(*core.Table)
	if !ok {
		return false
	}
	vpbn, _ := addr.BlockSplit(vpn, ct.LogSBF())
	return ct.Demote(vpbn)
}

// unmapOne removes one page's translation, demoting covering compact
// PTEs through the table's own rules. A page already gone — removed as
// part of an earlier bulk superpage/replica removal — is not an error.
func (s *AddressSpace) unmapOne(vpn addr.VPN, e pte.Entry) error {
	if _, _, ok := s.pt.Lookup(addr.VAOf(vpn)); !ok {
		return nil
	}
	err := s.pt.Unmap(vpn)
	if err == nil {
		s.noteUnmap(vpn)
		return nil
	}
	// Large superpages refuse per-page unmap; the whole superpage goes.
	type spUnmapper interface {
		UnmapSuperpage(vpn addr.VPN, size addr.Size) error
	}
	type replUnmapper interface {
		UnmapReplicated(vpn addr.VPN) error
	}
	if e.Kind == pte.KindSuperpage {
		if su, ok := s.pt.(spUnmapper); ok {
			base := vpn &^ addr.VPN(e.Size.Pages()-1)
			if err := su.UnmapSuperpage(base, e.Size); err != nil {
				return fmt.Errorf("mm: unmap %v superpage %#x: %w", e.Size, uint64(base), err)
			}
			for i := uint64(0); i < e.Size.Pages(); i++ {
				s.noteUnmap(base + addr.VPN(i))
			}
			return nil
		}
	}
	if ru, ok := s.pt.(replUnmapper); ok {
		if err := ru.UnmapReplicated(vpn); err != nil {
			return fmt.Errorf("mm: unmap replicated %#x: %w", uint64(vpn), err)
		}
		// A replicated compact PTE disappears whole: report every page it
		// translated, matching what OnMap saw when it was installed.
		switch e.Kind {
		case pte.KindSuperpage:
			base := vpn &^ addr.VPN(e.Size.Pages()-1)
			for i := uint64(0); i < e.Size.Pages(); i++ {
				s.noteUnmap(base + addr.VPN(i))
			}
		case pte.KindPartial:
			base := addr.BlockBase(vpn, s.logSBF)
			for boff := uint64(0); boff < uint64(1)<<s.logSBF; boff++ {
				if e.ValidMask>>boff&1 == 1 {
					s.noteUnmap(base + addr.VPN(boff))
				}
			}
		default:
			s.noteUnmap(vpn)
		}
		return nil
	}
	return fmt.Errorf("mm: unmap %#x: %w", uint64(vpn), err)
}

// Protect applies a protection change across r — the §3.1 range
// operation — returning the page table's cost.
func (s *AddressSpace) Protect(r addr.Range, set, clear pte.Attr) (pagetable.WalkCost, error) {
	return s.pt.ProtectRange(r, set, clear)
}

// ResidentPages counts mapped base pages.
func (s *AddressSpace) ResidentPages() uint64 { return s.pt.Size().Mappings }

// Fork builds a child address space over a fresh page table, eagerly
// copying the parent's layout: every VMA is re-reserved and every
// resident page is faulted into the child through the same allocator and
// page-size policy, so the child's compact PTEs (superpages,
// partial-subblock) re-form wherever placement cooperates. Parent and
// child share physical memory supply but no frames — eager copy, not
// copy-on-write.
func (s *AddressSpace) Fork(pt pagetable.PageTable) (*AddressSpace, error) {
	child := NewAddressSpace(pt, s.alloc, s.policy)
	for _, vma := range s.VMAs() {
		if err := child.Reserve(vma.Range, vma.Attr, vma.Name); err != nil {
			return nil, fmt.Errorf("mm: fork reserve %q: %w", vma.Name, err)
		}
		// Collect the parent's resident pages for this VMA, then fault
		// them into the child.
		var resident []addr.VPN
		switch parent := s.pt.(type) {
		case *core.Table:
			parent.VisitRange(vma.Range, func(vpn addr.VPN, _ pte.Entry) bool {
				resident = append(resident, vpn)
				return true
			})
		default:
			vma.Range.Pages(func(vpn addr.VPN) bool {
				if _, _, ok := s.pt.Lookup(addr.VAOf(vpn)); ok {
					resident = append(resident, vpn)
				}
				return true
			})
		}
		for _, vpn := range resident {
			if _, err := child.Touch(addr.VAOf(vpn)); err != nil {
				return nil, fmt.Errorf("mm: fork fault %#x: %w", uint64(vpn), err)
			}
		}
	}
	return child, nil
}

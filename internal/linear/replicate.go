package linear

import (
	"fmt"
	"math/bits"

	"clusterpt/internal/addr"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
)

// This file implements the "Replicate PTEs" strategy of §4.2/§4.3 for
// linear page tables: a superpage or partial-subblock PTE is stored at the
// page-table site of every base page it covers, so the miss handler finds
// it exactly as it finds a base PTE — no change to the TLB miss penalty,
// but no page-table memory savings either (Figure 10 has no replicated
// variants below the 1.0 line).

// MapSuperpage implements pagetable.SuperpageMapper by replication: the
// superpage word is written at all size.Pages() base sites.
func (t *Table) MapSuperpage(vpn addr.VPN, ppn addr.PPN, attr pte.Attr, size addr.Size) error {
	if !size.Valid() {
		return fmt.Errorf("linear: invalid superpage size %d", uint64(size))
	}
	pages := size.Pages()
	if uint64(vpn)&(pages-1) != 0 || uint64(ppn)&(pages-1) != 0 {
		return fmt.Errorf("%w: superpage vpn %#x / ppn %#x", pagetable.ErrMisaligned, uint64(vpn), uint64(ppn))
	}
	word := pte.MakeSuperpage(ppn, attr, size)
	t.mu.Lock()
	defer t.mu.Unlock()
	// Validate before writing so the operation is atomic.
	for i := uint64(0); i < pages; i++ {
		v := vpn + addr.VPN(i)
		if pg, ok := t.leaf[LeafPageIndex(v)]; ok && pg.words[uint64(v)&(entriesPerPage-1)].Valid() {
			return pagetable.ErrAlreadyMapped
		}
	}
	for i := uint64(0); i < pages; i++ {
		if err := t.setWord(vpn+addr.VPN(i), word); err != nil {
			panic("linear: replicate superpage conflict after validation")
		}
	}
	t.stats.NoteInsert()
	return nil
}

// LogSBF implements pagetable.PartialMapper.
func (t *Table) LogSBF() uint { return t.cfg.LogSBF }

// MapPartial implements pagetable.PartialMapper by replication: the
// partial-subblock word is written at every *resident* base site (absent
// subblocks keep invalid PTEs, so they still fault).
func (t *Table) MapPartial(vpbn addr.VPBN, basePPN addr.PPN, attr pte.Attr, valid uint16) error {
	if valid == 0 {
		return fmt.Errorf("linear: empty valid vector")
	}
	sbf := uint64(1) << t.cfg.LogSBF
	if t.cfg.LogSBF < 4 && uint64(valid)>>sbf != 0 {
		return fmt.Errorf("linear: valid vector %#x exceeds block factor %d", valid, sbf)
	}
	if uint64(basePPN)&(sbf-1) != 0 {
		return fmt.Errorf("%w: psb frame block %#x", pagetable.ErrMisaligned, uint64(basePPN))
	}
	word := pte.MakePartial(basePPN, attr, valid, t.cfg.LogSBF)
	first := addr.BlockJoin(vpbn, 0, t.cfg.LogSBF)
	t.mu.Lock()
	defer t.mu.Unlock()
	for boff := uint64(0); boff < sbf; boff++ {
		if valid>>boff&1 == 0 {
			continue
		}
		v := first + addr.VPN(boff)
		if pg, ok := t.leaf[LeafPageIndex(v)]; ok && pg.words[uint64(v)&(entriesPerPage-1)].Valid() {
			return pagetable.ErrAlreadyMapped
		}
	}
	for boff := uint64(0); boff < sbf; boff++ {
		if valid>>boff&1 == 0 {
			continue
		}
		if err := t.setWord(first+addr.VPN(boff), word); err != nil {
			panic("linear: replicate psb conflict after validation")
		}
	}
	t.stats.NoteInsert()
	return nil
}

// demoteReplicasLocked rewrites every replica site of the superpage or
// partial-subblock word covering vpn as a per-page base word: the site's
// frame is the object's first frame plus the page offset, and each site
// keeps its *own* attribute bits (ProtectRange updates replicas
// individually, so attrs may legitimately diverge across sites). The
// caller holds t.mu and typically invalidates the target site next.
// Leaf valid counts are unchanged: every valid word stays valid, only
// its kind narrows.
func (t *Table) demoteReplicasLocked(vpn addr.VPN, w pte.Word) error {
	var sites []addr.VPN
	switch w.Kind() {
	case pte.KindSuperpage:
		pages := w.Size().Pages()
		first := vpn &^ addr.VPN(pages-1)
		for i := uint64(0); i < pages; i++ {
			sites = append(sites, first+addr.VPN(i))
		}
	case pte.KindPartial:
		first := vpn &^ addr.VPN(1<<t.cfg.LogSBF-1)
		for boff := uint64(0); boff < uint64(1)<<t.cfg.LogSBF; boff++ {
			if w.ValidAt(boff) {
				sites = append(sites, first+addr.VPN(boff))
			}
		}
	default:
		return fmt.Errorf("%w: vpn %#x holds no replicated PTE", pagetable.ErrUnsupported, uint64(vpn))
	}
	for _, v := range sites {
		p, ok := t.leaf[LeafPageIndex(v)]
		slot := uint64(v) & (entriesPerPage - 1)
		if !ok {
			return fmt.Errorf("linear: inconsistent replica at vpn %#x", uint64(v))
		}
		sw := p.words[slot]
		// Attrs may differ per site; everything else must match.
		if !sw.Valid() || sw.WithAttr(w.Attr()) != w {
			return fmt.Errorf("linear: inconsistent replica at vpn %#x", uint64(v))
		}
		var ppn addr.PPN
		switch w.Kind() {
		case pte.KindSuperpage:
			ppn = w.PPN() + addr.PPN(uint64(v)&(w.Size().Pages()-1))
		case pte.KindPartial:
			ppn = w.PPNAt(uint64(v) & (1<<t.cfg.LogSBF - 1))
		}
		p.words[slot] = pte.MakeBase(ppn, sw.Attr())
	}
	return nil
}

// UnmapReplicated removes every replica of the superpage or
// partial-subblock PTE covering vpn. §4.2 notes that updating replicated
// PTEs atomically is what makes this strategy awkward for multi-threaded
// operating systems; here the table lock covers the whole update.
func (t *Table) UnmapReplicated(vpn addr.VPN) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	pg, ok := t.leaf[LeafPageIndex(vpn)]
	if !ok {
		return pagetable.ErrNotMapped
	}
	w := pg.words[uint64(vpn)&(entriesPerPage-1)]
	if !w.Valid() || w.Kind() == pte.KindBase {
		return pagetable.ErrNotMapped
	}
	var sites []addr.VPN
	var removed int
	switch w.Kind() {
	case pte.KindSuperpage:
		pages := w.Size().Pages()
		first := vpn &^ addr.VPN(pages-1)
		for i := uint64(0); i < pages; i++ {
			sites = append(sites, first+addr.VPN(i))
		}
		removed = int(pages)
	case pte.KindPartial:
		first := vpn &^ addr.VPN(1<<t.cfg.LogSBF-1)
		for boff := uint64(0); boff < uint64(1)<<t.cfg.LogSBF; boff++ {
			if w.ValidAt(boff) {
				sites = append(sites, first+addr.VPN(boff))
			}
		}
		removed = bits.OnesCount16(w.ValidMask())
	}
	for _, v := range sites {
		p := t.leaf[LeafPageIndex(v)]
		slot := uint64(v) & (entriesPerPage - 1)
		if p == nil || p.words[slot] != w {
			return fmt.Errorf("linear: inconsistent replica at vpn %#x", uint64(v))
		}
		p.words[slot] = pte.Invalid
		p.count--
		if p.count == 0 {
			t.releaseLeaf(v)
		}
	}
	_ = removed
	t.stats.NoteRemove()
	return nil
}

// LookupBlock implements pagetable.BlockReader as AppendBlock into a
// nil buffer.
func (t *Table) LookupBlock(vpbn addr.VPBN, logSBF uint) ([]pte.Entry, pagetable.WalkCost, bool) {
	return t.AppendBlock(nil, vpbn, logSBF)
}

// AppendBlock implements pagetable.BlockReader: the block's PTEs are
// adjacent in the PTE array, so a complete-subblock prefetch gather is a
// single contiguous read — one cache line for sixteen 8-byte PTEs with
// 256-byte lines (§4.4: the penalty is "reasonable" for linear tables).
func (t *Table) AppendBlock(dst []pte.Entry, vpbn addr.VPBN, logSBF uint) ([]pte.Entry, pagetable.WalkCost, bool) {
	sbf := uint64(1) << logSBF
	first := addr.BlockJoin(vpbn, 0, logSBF)
	t.mu.RLock()
	defer t.mu.RUnlock()
	cost := pagetable.WalkCost{Probes: 1, Nodes: 1}
	startOff := int(uint64(first)&(entriesPerPage-1)) * pte.WordBytes
	cost.Lines = t.cfg.CostModel.Span(startOff, int(sbf)*pte.WordBytes)
	pg, ok := t.leaf[LeafPageIndex(first)]
	if !ok {
		return dst, cost, false
	}
	n := len(dst)
	for boff := uint64(0); boff < sbf; boff++ {
		vpn := first + addr.VPN(boff)
		w := pg.words[uint64(vpn)&(entriesPerPage-1)]
		if !w.Valid() {
			continue
		}
		if w.Kind() == pte.KindPartial && !w.ValidAt(boff&(1<<t.cfg.LogSBF-1)) {
			continue
		}
		dst = append(dst, pte.EntryFromWord(w, vpn, boff&(1<<t.cfg.LogSBF-1)))
	}
	return dst, cost, len(dst) > n
}

package forward

import (
	"fmt"
	"math/bits"

	"clusterpt/internal/addr"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
)

// MapSuperpage implements pagetable.SuperpageMapper by leaf replication
// (§4.2 "Replicate PTEs"), the strategy the paper's experiments assume for
// forward-mapped tables. Use MapSuperpageAtNode for the intermediate-node
// alternative.
func (t *Table) MapSuperpage(vpn addr.VPN, ppn addr.PPN, attr pte.Attr, size addr.Size) error {
	if !size.Valid() {
		return fmt.Errorf("forward: invalid superpage size %d", uint64(size))
	}
	pages := size.Pages()
	if uint64(vpn)&(pages-1) != 0 || uint64(ppn)&(pages-1) != 0 {
		return fmt.Errorf("%w: superpage vpn %#x / ppn %#x", pagetable.ErrMisaligned, uint64(vpn), uint64(ppn))
	}
	word := pte.MakeSuperpage(ppn, attr, size)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := uint64(0); i < pages; i++ {
		if _, _, ok := t.lookupLocked(vpn + addr.VPN(i)); ok {
			return pagetable.ErrAlreadyMapped
		}
	}
	for i := uint64(0); i < pages; i++ {
		if err := t.setLeafWord(vpn+addr.VPN(i), word); err != nil {
			panic("forward: replicate conflict after validation")
		}
	}
	t.nMapped += pages
	t.stats.NoteInsert()
	return nil
}

// MapSuperpageAtNode stores a superpage PTE at the intermediate tree node
// whose per-entry coverage equals the superpage size (§4.2). Lookups that
// hit it terminate early, costing fewer cache lines than a full walk; only
// sizes corresponding to tree levels are supported.
func (t *Table) MapSuperpageAtNode(vpn addr.VPN, ppn addr.PPN, attr pte.Attr, size addr.Size) error {
	if !size.Valid() {
		return fmt.Errorf("forward: invalid superpage size %d", uint64(size))
	}
	pages := size.Pages()
	if uint64(vpn)&(pages-1) != 0 || uint64(ppn)&(pages-1) != 0 {
		return fmt.Errorf("%w: superpage vpn %#x / ppn %#x", pagetable.ErrMisaligned, uint64(vpn), uint64(ppn))
	}
	lvl := t.levelForSize(size)
	if lvl < 0 || lvl == len(t.cfg.LevelBits)-1 && pages != 1 {
		return fmt.Errorf("%w: %v does not correspond to a tree level (available: %v)",
			pagetable.ErrUnsupported, size, t.IntermediateSizes())
	}
	word := pte.MakeSuperpage(ppn, attr, size)
	t.mu.Lock()
	defer t.mu.Unlock()
	nd := t.root
	for l := 0; l < lvl; l++ {
		ent := &nd.entries[t.slot(vpn, l)]
		if ent.word.Valid() {
			return pagetable.ErrAlreadyMapped
		}
		if ent.child == nil {
			ent.child = t.newNode(l + 1)
			nd.count++
		}
		nd = ent.child
	}
	ent := &nd.entries[t.slot(vpn, lvl)]
	if ent.word.Valid() || ent.child != nil {
		return pagetable.ErrAlreadyMapped
	}
	ent.word = word
	nd.count++
	t.nMapped += pages
	t.stats.NoteInsert()
	return nil
}

// UnmapSuperpageAtNode removes an intermediate-node superpage PTE.
func (t *Table) UnmapSuperpageAtNode(vpn addr.VPN, size addr.Size) error {
	lvl := t.levelForSize(size)
	if lvl < 0 {
		return fmt.Errorf("%w: %v has no tree level", pagetable.ErrUnsupported, size)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	path := make([]*fnode, 0, lvl+1)
	nd := t.root
	for l := 0; l < lvl; l++ {
		path = append(path, nd)
		ent := &nd.entries[t.slot(vpn, l)]
		if ent.child == nil {
			return pagetable.ErrNotMapped
		}
		nd = ent.child
	}
	path = append(path, nd)
	ent := &nd.entries[t.slot(vpn, lvl)]
	if !ent.word.Valid() || ent.word.Kind() != pte.KindSuperpage || ent.word.Size() != size {
		return pagetable.ErrNotMapped
	}
	ent.word = pte.Invalid
	nd.count--
	t.pruneIfEmpty(vpn, path)
	t.nMapped -= size.Pages()
	t.stats.NoteRemove()
	return nil
}

// LogSBF implements pagetable.PartialMapper.
func (t *Table) LogSBF() uint { return t.cfg.LogSBF }

// MapPartial implements pagetable.PartialMapper by leaf replication at
// every resident site (§4.3).
func (t *Table) MapPartial(vpbn addr.VPBN, basePPN addr.PPN, attr pte.Attr, valid uint16) error {
	if valid == 0 {
		return fmt.Errorf("forward: empty valid vector")
	}
	sbf := uint64(1) << t.cfg.LogSBF
	if t.cfg.LogSBF < 4 && uint64(valid)>>sbf != 0 {
		return fmt.Errorf("forward: valid vector %#x exceeds block factor %d", valid, sbf)
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
		if _, _, ok := t.lookupLocked(first + addr.VPN(boff)); ok {
			return pagetable.ErrAlreadyMapped
		}
	}
	for boff := uint64(0); boff < sbf; boff++ {
		if valid>>boff&1 == 0 {
			continue
		}
		if err := t.setLeafWord(first+addr.VPN(boff), word); err != nil {
			panic("forward: replicate psb conflict after validation")
		}
	}
	t.nMapped += uint64(bits.OnesCount16(valid))
	t.stats.NoteInsert()
	return nil
}

// UnmapReplicated removes every leaf replica of the superpage or
// partial-subblock PTE covering vpn.
// demoteReplicasLocked rewrites every replica site of the superpage or
// partial-subblock word covering vpn as a per-page base word: the site's
// frame is the object's first frame plus the page offset, and each site
// keeps its *own* attribute bits (ProtectRange updates replicas
// individually, so attrs may legitimately diverge across sites). The
// caller holds t.mu and typically invalidates the target site next.
// Mapped-page and node counts are unchanged: every valid word stays
// valid, only its kind narrows.
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
	var buf [maxLevels]*fnode
	for _, v := range sites {
		p, err := t.walkTo(buf[:0], v, false)
		if err != nil {
			return fmt.Errorf("forward: inconsistent replica at vpn %#x: %v", uint64(v), err)
		}
		lf := p[len(p)-1]
		s := t.slot(v, len(p)-1)
		sw := lf.entries[s].word
		// Attrs may differ per site; everything else must match.
		if !sw.Valid() || sw.WithAttr(w.Attr()) != w {
			return fmt.Errorf("forward: inconsistent replica at vpn %#x", uint64(v))
		}
		var ppn addr.PPN
		switch w.Kind() {
		case pte.KindSuperpage:
			ppn = w.PPN() + addr.PPN(uint64(v)&(w.Size().Pages()-1))
		case pte.KindPartial:
			ppn = w.PPNAt(uint64(v) & (1<<t.cfg.LogSBF - 1))
		}
		lf.entries[s].word = pte.MakeBase(ppn, sw.Attr())
	}
	return nil
}

func (t *Table) UnmapReplicated(vpn addr.VPN) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var buf [maxLevels]*fnode
	path, err := t.walkTo(buf[:0], vpn, false)
	if err != nil {
		return err
	}
	leaf := path[len(path)-1]
	w := leaf.entries[t.slot(vpn, len(path)-1)].word
	if !w.Valid() || w.Kind() == pte.KindBase {
		return pagetable.ErrNotMapped
	}
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
	}
	for _, v := range sites {
		p, err := t.walkTo(buf[:0], v, false)
		if err != nil {
			return fmt.Errorf("forward: inconsistent replica at vpn %#x: %v", uint64(v), err)
		}
		lf := p[len(p)-1]
		s := t.slot(v, len(p)-1)
		if lf.entries[s].word != w {
			return fmt.Errorf("forward: inconsistent replica at vpn %#x", uint64(v))
		}
		lf.entries[s].word = pte.Invalid
		lf.count--
		t.pruneIfEmpty(v, p)
	}
	t.nMapped -= uint64(len(sites))
	t.stats.NoteRemove()
	return nil
}

// LookupBlock implements pagetable.BlockReader as AppendBlock into a
// nil buffer.
func (t *Table) LookupBlock(vpbn addr.VPBN, logSBF uint) ([]pte.Entry, pagetable.WalkCost, bool) {
	return t.AppendBlock(nil, vpbn, logSBF)
}

// AppendBlock implements pagetable.BlockReader: a block's leaf PTEs are
// adjacent, so the gather costs the intermediate walk plus one contiguous
// leaf read.
func (t *Table) AppendBlock(dst []pte.Entry, vpbn addr.VPBN, logSBF uint) ([]pte.Entry, pagetable.WalkCost, bool) {
	sbf := uint64(1) << logSBF
	first := addr.BlockJoin(vpbn, 0, logSBF)
	t.mu.RLock()
	defer t.mu.RUnlock()

	var cost pagetable.WalkCost
	cost.Probes = 1
	nd := t.root
	nlev := len(t.cfg.LevelBits)
	for lvl := 0; lvl < nlev-1; lvl++ {
		cost.Nodes++
		cost.Lines++
		ent := &nd.entries[t.slot(first, lvl)]
		if ent.word.Valid() {
			// Intermediate superpage covers the block: one entry for all.
			for boff := uint64(0); boff < sbf; boff++ {
				vpn := first + addr.VPN(boff)
				dst = append(dst, pte.EntryFromWord(ent.word, vpn, boff))
			}
			return dst, cost, true
		}
		if ent.child == nil {
			return dst, cost, false
		}
		nd = ent.child
	}
	cost.Nodes++
	startOff := int(t.slot(first, nlev-1)) * pte.WordBytes
	cost.Lines += t.cfg.CostModel.Span(startOff, int(sbf)*pte.WordBytes)
	n := len(dst)
	for boff := uint64(0); boff < sbf; boff++ {
		vpn := first + addr.VPN(boff)
		w := nd.entries[t.slot(vpn, nlev-1)].word
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

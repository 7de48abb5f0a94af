package core

import (
	"fmt"

	"clusterpt/internal/addr"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
)

func (t *Table) noteRemove() {
	t.stats.NoteRemove()
}

// Unmap implements pagetable.PageTable: it removes the base-page
// translation covering vpn. If the page is covered by a compact PTE the
// node is demoted as needed: a block-sized superpage becomes a
// partial-subblock PTE missing one page (the natural intermediate format,
// §4.3), a sub-block superpage is re-expanded into base words, and a
// superpage wider than the page block must be removed with UnmapSuperpage
// first.
func (t *Table) Unmap(vpn addr.VPN) error {
	vpbn, boff := addr.BlockSplit(vpn, t.logSBF)
	b := t.bucketFor(vpbn)
	b.mu.Lock()
	defer b.mu.Unlock()

	for nd := b.head; nd != nil; nd = nd.next {
		if nd.vpbn != vpbn {
			continue
		}
		w, _, covers := nd.wordAt(boff)
		if !covers {
			continue
		}
		if err := t.removeAt(b, nd, w, boff); err != nil {
			return err
		}
		t.account(0, 0, 0, -1)
		t.noteRemove()
		return nil
	}
	return pagetable.ErrNotMapped
}

// removeAt clears block offset boff in node nd, demoting compact formats
// as required. Caller holds the bucket write lock.
func (t *Table) removeAt(b *bucket, nd *node, w pte.Word, boff uint64) error {
	switch nd.kind {
	case nodeSparse:
		t.unlinkFree(b, nd)
		t.account(0, 0, -1, 0)
		return nil
	case nodeCompact:
		if w.Kind() == pte.KindPartial {
			m := w.ValidMask() &^ (1 << boff)
			if m == 0 {
				t.unlinkFree(b, nd)
				t.account(0, -1, 0, 0)
				return nil
			}
			nd.words[0] = w.WithValidMask(m)
			return nil
		}
		// Block-sized superpage: demote to a partial-subblock PTE with
		// every page but boff resident.
		if w.Size().Pages() > uint64(t.cfg.SubblockFactor) {
			return fmt.Errorf("%w: page %#x is covered by a %v superpage; use UnmapSuperpage",
				pagetable.ErrUnsupported, uint64(addr.BlockJoin(nd.vpbn, boff, t.logSBF)), w.Size())
		}
		if t.cfg.SubblockFactor <= 16 {
			mask := uint16(1)<<t.cfg.SubblockFactor - 1
			if t.cfg.SubblockFactor == 16 {
				mask = ^uint16(0)
			}
			nd.words[0] = pte.MakePartial(w.PPN(), w.Attr(), mask&^(1<<boff), t.logSBF)
			return nil
		}
		// Factors too wide for a valid vector expand into base words.
		t.demoteSuperpageNode(nd, w, boff)
		return nil
	default: // nodeFull
		if w.Kind() == pte.KindSuperpage {
			// Sub-block superpage: re-expand its other pages into base
			// words, clear this one.
			t.expandSubBlockSuperpage(b, nd, w, boff)
			return nil
		}
		nd.words[boff] = pte.Invalid
		if nd.empty() {
			t.unlinkFree(b, nd)
			t.account(-1, 0, 0, 0)
		}
		return nil
	}
}

// demoteSuperpageNode converts a compact block-superpage node into a full
// node of base words with offset boff cleared.
func (t *Table) demoteSuperpageNode(nd *node, w pte.Word, boff uint64) {
	nd.kind = nodeFull
	t.setWords(nd, t.cfg.SubblockFactor)
	for i := uint64(0); i < uint64(t.cfg.SubblockFactor); i++ {
		if i == boff {
			continue
		}
		nd.words[i] = pte.MakeBase(w.PPN()+addr.PPN(i), w.Attr())
	}
	t.account(1, -1, 0, 0)
}

// expandSubBlockSuperpage rewrites the slots of a sub-block superpage word
// within a full node as base words, clearing boff. Caller holds the bucket
// write lock.
func (t *Table) expandSubBlockSuperpage(b *bucket, nd *node, w pte.Word, boff uint64) {
	pages := w.Size().Pages()
	first := boff &^ (pages - 1)
	for i := uint64(0); i < pages; i++ {
		slot := first + i
		if slot == boff {
			nd.words[slot] = pte.Invalid
			continue
		}
		nd.words[slot] = pte.MakeBase(w.PPN()+addr.PPN(i), w.Attr())
	}
	if nd.empty() {
		t.unlinkFree(b, nd)
		t.account(-1, 0, 0, 0)
	}
}

// UnmapSuperpage removes an entire superpage mapping installed with
// MapSuperpage. vpn must be the superpage's first page.
func (t *Table) UnmapSuperpage(vpn addr.VPN, size addr.Size) error {
	if !size.Valid() {
		return fmt.Errorf("core: invalid superpage size %d", uint64(size))
	}
	pages := size.Pages()
	if uint64(vpn)&(pages-1) != 0 {
		return fmt.Errorf("%w: superpage vpn %#x", pagetable.ErrMisaligned, uint64(vpn))
	}
	sbf := uint64(t.cfg.SubblockFactor)
	if pages < sbf {
		return t.unmapSubBlockSuperpage(vpn, size, pages)
	}
	return t.unmapBlockSuperpage(vpn, size, pages/sbf)
}

func (t *Table) unmapSubBlockSuperpage(vpn addr.VPN, size addr.Size, pages uint64) error {
	vpbn, boff := addr.BlockSplit(vpn, t.logSBF)
	b := t.bucketFor(vpbn)
	b.mu.Lock()
	defer b.mu.Unlock()
	nd, _ := b.findNode(vpbn, func(n *node) bool {
		return n.kind == nodeFull &&
			n.words[boff].Valid() &&
			n.words[boff].Kind() == pte.KindSuperpage &&
			n.words[boff].Size() == size
	})
	if nd == nil {
		return pagetable.ErrNotMapped
	}
	for i := uint64(0); i < pages; i++ {
		nd.words[boff+i] = pte.Invalid
	}
	if nd.empty() {
		t.unlinkFree(b, nd)
		t.account(-1, 0, 0, 0)
	}
	t.account(0, 0, 0, -int64(pages))
	t.noteRemove()
	return nil
}

func (t *Table) unmapBlockSuperpage(vpn addr.VPN, size addr.Size, blocks uint64) error {
	firstBlock, _ := addr.BlockSplit(vpn, t.logSBF)
	// Validate every replica exists before removing any, so the operation
	// is all-or-nothing with respect to missing mappings.
	for i := uint64(0); i < blocks; i++ {
		vpbn := firstBlock + addr.VPBN(i)
		b := t.bucketFor(vpbn)
		b.mu.Lock()
		nd, _ := b.findNode(vpbn, func(n *node) bool {
			return n.kind == nodeCompact &&
				n.words[0].Valid() &&
				n.words[0].Kind() == pte.KindSuperpage &&
				n.words[0].Size() == size
		})
		b.mu.Unlock()
		if nd == nil {
			return pagetable.ErrNotMapped
		}
	}
	for i := uint64(0); i < blocks; i++ {
		vpbn := firstBlock + addr.VPBN(i)
		b := t.bucketFor(vpbn)
		b.mu.Lock()
		nd, _ := b.findNode(vpbn, func(n *node) bool {
			return n.kind == nodeCompact &&
				n.words[0].Valid() &&
				n.words[0].Kind() == pte.KindSuperpage &&
				n.words[0].Size() == size
		})
		if nd != nil {
			t.unlinkFree(b, nd)
		}
		b.mu.Unlock()
	}
	t.account(0, -int64(blocks), 0, -int64(blocks)*int64(t.cfg.SubblockFactor))
	t.noteRemove()
	return nil
}

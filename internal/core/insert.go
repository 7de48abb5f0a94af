package core

import (
	"fmt"
	"math/bits"

	"clusterpt/internal/addr"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
)

func (t *Table) noteInsert() {
	t.stats.NoteInsert()
}

// Map implements pagetable.PageTable: it installs a base-page mapping.
// Adding a mapping to an already-resident page block reuses the block's
// node, amortizing allocation and list insertion across the block (§3.1).
func (t *Table) Map(vpn addr.VPN, ppn addr.PPN, attr pte.Attr) error {
	vpbn, boff := addr.BlockSplit(vpn, t.logSBF)
	b := t.bucketFor(vpbn)
	b.mu.Lock()
	defer b.mu.Unlock()

	// Scan the chain once: reject a covered offset, remember insertion
	// candidates.
	var full, sparse, psb *node
	for nd := b.head; nd != nil; nd = nd.next {
		if nd.vpbn != vpbn {
			continue
		}
		if _, _, covers := nd.wordAt(boff); covers {
			return pagetable.ErrAlreadyMapped
		}
		switch nd.kind {
		case nodeFull:
			full = nd
		case nodeSparse:
			sparse = nd
		case nodeCompact:
			if nd.words[0].Valid() && nd.words[0].Kind() == pte.KindPartial {
				psb = nd
			}
		}
	}

	word := pte.MakeBase(ppn, attr)
	switch {
	case psb != nil && t.psbAbsorbs(psb.words[0], boff, ppn, attr):
		// The new page lands at its properly-placed frame with matching
		// protection: extend the partial-subblock valid vector instead of
		// allocating anything (§5 incremental creation).
		psb.words[0] = psb.words[0].WithValidMask(psb.words[0].ValidMask() | 1<<boff)
	case full != nil:
		full.words[boff] = word
	case sparse != nil:
		// Second mapping in the block: widen the sparse node to a full
		// clustered PTE.
		t.widenSparse(sparse)
		sparse.words[boff] = word
	case psb != nil:
		// Incompatible placement or protection: demote the partial-
		// subblock node to a full node, then store the new word.
		t.demotePSB(psb)
		psb.words[boff] = word
	case t.cfg.SparseNodes:
		nd := t.allocNode(vpbn, nodeSparse, 1)
		nd.sparseOff = boff
		nd.words[0] = word
		nd.next, b.head = b.head, nd
		t.account(0, 0, 1, 0)
	default:
		nd := t.newFullNode(vpbn)
		nd.words[boff] = word
		nd.next, b.head = b.head, nd
		t.account(1, 0, 0, 0)
	}
	t.account(0, 0, 0, 1)
	t.noteInsert()
	return nil
}

// psbAbsorbs reports whether a base mapping can extend an existing
// partial-subblock word: the frame must be the properly-placed one and the
// protection must match.
func (t *Table) psbAbsorbs(w pte.Word, boff uint64, ppn addr.PPN, attr pte.Attr) bool {
	return w.PPNAt(boff) == ppn && w.Attr().Protection() == attr.Protection()
}

func (t *Table) newFullNode(vpbn addr.VPBN) *node {
	return t.allocNode(vpbn, nodeFull, t.cfg.SubblockFactor)
}

// widenSparse converts a sparse single-mapping node into a full node in
// place (same chain position).
func (t *Table) widenSparse(nd *node) {
	w, off := nd.words[0], nd.sparseOff
	nd.kind = nodeFull
	nd.sparseOff = 0
	t.setWords(nd, t.cfg.SubblockFactor)
	nd.words[off] = w
	t.account(1, 0, -1, 0)
}

// demotePSB expands a partial-subblock node into a full node of base
// words in place.
func (t *Table) demotePSB(nd *node) {
	w := nd.words[0]
	nd.kind = nodeFull
	t.setWords(nd, t.cfg.SubblockFactor)
	for boff := uint64(0); boff < uint64(t.cfg.SubblockFactor); boff++ {
		if w.ValidAt(boff) {
			nd.words[boff] = pte.MakeBase(w.PPNAt(boff), w.Attr())
		}
	}
	t.account(1, -1, 0, 0)
}

// MapPartial implements pagetable.PartialMapper: it installs a
// partial-subblock PTE for page block vpbn (Figure 8). The valid vector
// must be non-zero and fit the subblock factor; the frame block must be
// block-aligned (properly placed, §4.1).
func (t *Table) MapPartial(vpbn addr.VPBN, basePPN addr.PPN, attr pte.Attr, valid uint16) error {
	sbf := t.cfg.SubblockFactor
	if sbf > 16 {
		return fmt.Errorf("%w: partial-subblock needs factor ≤16, table has %d",
			pagetable.ErrUnsupported, sbf)
	}
	if valid == 0 {
		return fmt.Errorf("core: empty valid vector for block %#x", uint64(vpbn))
	}
	if sbf < 16 && valid>>sbf != 0 {
		return fmt.Errorf("core: valid vector %#x exceeds subblock factor %d", valid, sbf)
	}
	if uint64(basePPN)&(uint64(sbf)-1) != 0 {
		return fmt.Errorf("%w: psb frame block %#x", pagetable.ErrMisaligned, uint64(basePPN))
	}

	b := t.bucketFor(vpbn)
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := t.checkBlockFree(b, vpbn, uint64(valid)); err != nil {
		return err
	}
	// Incremental psb creation (§5): if the block already has a psb node
	// with the same frame block and protection, extend its valid vector
	// instead of chaining a second node.
	if psb, _ := b.findNode(vpbn, func(n *node) bool {
		return n.kind == nodeCompact && n.words[0].Valid() &&
			n.words[0].Kind() == pte.KindPartial &&
			n.words[0].PPN() == basePPN &&
			n.words[0].Attr().Protection() == attr.Protection()
	}); psb != nil {
		psb.words[0] = psb.words[0].WithValidMask(psb.words[0].ValidMask() | valid)
		t.account(0, 0, 0, int64(bits.OnesCount16(valid)))
		t.noteInsert()
		return nil
	}
	nd := t.allocNode(vpbn, nodeCompact, 1)
	nd.words[0] = pte.MakePartial(basePPN, attr, valid, t.logSBF)
	nd.next, b.head = b.head, nd
	t.account(0, 1, 0, int64(bits.OnesCount16(valid)))
	t.noteInsert()
	return nil
}

// checkBlockFree rejects a new mapping whose coverage (bit i of mask =
// block offset i) overlaps any valid mapping already in block vpbn.
// Caller holds the bucket write lock.
func (t *Table) checkBlockFree(b *bucket, vpbn addr.VPBN, mask uint64) error {
	for nd := b.head; nd != nil; nd = nd.next {
		if nd.vpbn != vpbn {
			continue
		}
		for boff := uint64(0); boff < uint64(t.cfg.SubblockFactor); boff++ {
			if mask>>boff&1 == 0 {
				continue
			}
			if _, _, covers := nd.wordAt(boff); covers {
				return pagetable.ErrAlreadyMapped
			}
		}
	}
	return nil
}

// MapSuperpage implements pagetable.SuperpageMapper. Superpages no larger
// than the page block occupy slots of a full node (replicated per covered
// slot so lookup still reads mapping[Boff]); block-sized and larger
// superpages use compact nodes, replicated once per covered block rather
// than once per base page — a factor-of-s less replication than
// conventional page tables need (§5).
func (t *Table) MapSuperpage(vpn addr.VPN, ppn addr.PPN, attr pte.Attr, size addr.Size) error {
	if !size.Valid() {
		return fmt.Errorf("core: invalid superpage size %d", uint64(size))
	}
	pages := size.Pages()
	if uint64(vpn)&(pages-1) != 0 || uint64(ppn)&(pages-1) != 0 {
		return fmt.Errorf("%w: superpage vpn %#x / ppn %#x not %v-aligned",
			pagetable.ErrMisaligned, uint64(vpn), uint64(ppn), size)
	}
	word := pte.MakeSuperpage(ppn, attr, size)
	sbf := uint64(t.cfg.SubblockFactor)
	if pages < sbf {
		return t.mapSubBlockSuperpage(vpn, word, pages)
	}
	return t.mapBlockSuperpage(vpn, word, pages/sbf)
}

// mapSubBlockSuperpage stores a superpage smaller than the page block by
// replicating its word at each covered slot of the block's full node.
func (t *Table) mapSubBlockSuperpage(vpn addr.VPN, word pte.Word, pages uint64) error {
	vpbn, boff := addr.BlockSplit(vpn, t.logSBF)
	mask := (uint64(1)<<pages - 1) << boff

	b := t.bucketFor(vpbn)
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := t.checkBlockFree(b, vpbn, mask); err != nil {
		return err
	}
	full, _ := b.findNode(vpbn, func(n *node) bool { return n.kind == nodeFull })
	if full == nil {
		if sparse, _ := b.findNode(vpbn, func(n *node) bool { return n.kind == nodeSparse }); sparse != nil {
			t.widenSparse(sparse)
			full = sparse
		} else {
			full = t.newFullNode(vpbn)
			full.next, b.head = b.head, full
			t.account(1, 0, 0, 0)
		}
	}
	for i := uint64(0); i < pages; i++ {
		full.words[boff+i] = word
	}
	t.account(0, 0, 0, int64(pages))
	t.noteInsert()
	return nil
}

// mapBlockSuperpage installs one compact superpage node per covered page
// block. Blocks are processed in order with per-bucket locking; on a
// conflict the already-inserted replicas are rolled back.
func (t *Table) mapBlockSuperpage(vpn addr.VPN, word pte.Word, blocks uint64) error {
	firstBlock, _ := addr.BlockSplit(vpn, t.logSBF)
	inserted := make([]*node, 0, blocks)
	for i := uint64(0); i < blocks; i++ {
		vpbn := firstBlock + addr.VPBN(i)
		b := t.bucketFor(vpbn)
		b.mu.Lock()
		err := t.checkBlockFree(b, vpbn, ^uint64(0))
		if err != nil {
			b.mu.Unlock()
			t.rollbackSuperpage(inserted)
			return err
		}
		nd := t.allocNode(vpbn, nodeCompact, 1)
		nd.words[0] = word
		nd.next, b.head = b.head, nd
		b.mu.Unlock()
		inserted = append(inserted, nd)
	}
	t.account(0, int64(blocks), 0, int64(blocks)*int64(t.cfg.SubblockFactor))
	t.noteInsert()
	return nil
}

func (t *Table) rollbackSuperpage(inserted []*node) {
	for _, nd := range inserted {
		b := t.bucketFor(nd.vpbn)
		b.mu.Lock()
		t.unlinkFree(b, nd)
		b.mu.Unlock()
	}
}

package core

import (
	"clusterpt/internal/addr"
	"clusterpt/internal/memcost"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
)

// account adjusts node and mapping counters. Deltas are atomic adds
// (negative deltas wrap through two's complement), so concurrent bucket
// operations never contend on a shared counter lock.
func (t *Table) account(dFull, dCompact, dSparse, dMapped int64) {
	if dFull != 0 {
		t.nFull.Add(uint64(dFull))
	}
	if dCompact != 0 {
		t.nCompact.Add(uint64(dCompact))
	}
	if dSparse != 0 {
		t.nSparse.Add(uint64(dSparse))
	}
	if dMapped != 0 {
		t.nMapped.Add(uint64(dMapped))
	}
}

func (t *Table) noteLookup(ok bool) {
	t.stats.NoteLookup(ok)
}

// Lookup implements pagetable.PageTable. It mirrors the §5 TLB miss
// handler: hash on the VPBN, walk the chain matching tags, and after a
// match dispatch on the mapping word's S field. A tag match whose word
// does not cover the faulting offset continues down the chain (mixed page
// sizes within one block use multiple nodes on the same chain).
func (t *Table) Lookup(va addr.V) (pte.Entry, pagetable.WalkCost, bool) {
	vpn := addr.VPNOf(va)
	vpbn, boff := addr.BlockSplit(vpn, t.logSBF)

	b := t.bucketFor(vpbn)
	b.mu.RLock()
	e, cost, ok := t.lookupLocked(b, vpbn, vpn, boff)
	b.mu.RUnlock()
	t.noteLookup(ok)
	return e, cost, ok
}

func (t *Table) lookupLocked(b *bucket, vpbn addr.VPBN, vpn addr.VPN, boff uint64) (pte.Entry, pagetable.WalkCost, bool) {
	var meter memcost.Meter
	cost := pagetable.WalkCost{Probes: 1}
	for nd := b.head; nd != nil; nd = nd.next {
		cost.Nodes++
		if nd.vpbn != vpbn {
			// Tag mismatch: only the tag and next pointer were read.
			meter.Touch(t.cfg.CostModel, [2]int{0, headerBytes})
			continue
		}
		w, byteOff, covers := nd.wordAt(boff)
		meter.Touch(t.cfg.CostModel,
			[2]int{0, headerBytes}, [2]int{byteOff, pte.WordBytes})
		if covers {
			cost.Lines = meter.Lines()
			return pte.EntryFromWord(w, vpn, boff), cost, true
		}
	}
	// The bucket array holds the chains' first nodes (Figure 4), so even
	// a probe of an empty bucket reads one line.
	cost.Lines = meter.Lines()
	if cost.Lines == 0 {
		cost.Lines = 1
	}
	return pte.Entry{}, cost, false
}

// LookupBlock implements pagetable.BlockReader as AppendBlock into a
// nil buffer.
func (t *Table) LookupBlock(vpbn addr.VPBN, logSBF uint) ([]pte.Entry, pagetable.WalkCost, bool) {
	return t.AppendBlock(nil, vpbn, logSBF)
}

// AppendBlock implements pagetable.BlockReader: it appends every valid
// base-page translation in the block for complete-subblock TLB prefetch
// (§4.4). Because a clustered node stores the whole block's mappings
// contiguously, the gather touches the node's full mapping array rather
// than probing once per base page as a hashed table must.
func (t *Table) AppendBlock(dst []pte.Entry, vpbn addr.VPBN, logSBF uint) ([]pte.Entry, pagetable.WalkCost, bool) {
	if logSBF != t.logSBF {
		// The table's block geometry is fixed at construction.
		return dst, pagetable.WalkCost{}, false
	}
	b := t.bucketFor(vpbn)
	b.mu.RLock()
	defer b.mu.RUnlock()

	var meter memcost.Meter
	cost := pagetable.WalkCost{Probes: 1}
	n := len(dst)
	sbf := uint64(t.cfg.SubblockFactor)
	for nd := b.head; nd != nil; nd = nd.next {
		cost.Nodes++
		if nd.vpbn != vpbn {
			meter.Touch(t.cfg.CostModel, [2]int{0, headerBytes})
			continue
		}
		// Matching node: the prefetch reads all its mapping words.
		meter.Touch(t.cfg.CostModel,
			[2]int{0, headerBytes},
			[2]int{headerBytes, len(nd.words) * pte.WordBytes})
		for boff := uint64(0); boff < sbf; boff++ {
			w, _, covers := nd.wordAt(boff)
			if !covers {
				continue
			}
			vpn := addr.BlockJoin(vpbn, boff, t.logSBF)
			dst = append(dst, pte.EntryFromWord(w, vpn, boff))
		}
	}
	cost.Lines = meter.Lines()
	return dst, cost, len(dst) > n
}

// findNode returns the first chain node with the given tag that satisfies
// pred (nil pred matches any). Caller holds the bucket lock.
func (b *bucket) findNode(vpbn addr.VPBN, pred func(*node) bool) (*node, **node) {
	link := &b.head
	for nd := b.head; nd != nil; nd = nd.next {
		if nd.vpbn == vpbn && (pred == nil || pred(nd)) {
			return nd, link
		}
		link = &nd.next
	}
	return nil, nil
}

// unlink removes nd from the chain. Caller holds the bucket write lock.
func (b *bucket) unlink(target *node) {
	for link := &b.head; *link != nil; link = &(*link).next {
		if *link == target {
			*link = target.next
			return
		}
	}
}

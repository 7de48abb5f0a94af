package hashed

import (
	"fmt"
	"sync"

	"clusterpt/internal/addr"
	"clusterpt/internal/memcost"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/ptalloc"
	"clusterpt/internal/pte"
)

// SPIndexTable is the "Superpage-Index Hashed" organization of §4.2: a
// single hash table that always hashes on a fixed superpage index (the
// page-block number). Base-page PTEs and superpage/partial-subblock PTEs
// for the same region chain to the same bucket. A 64KB region mapped by
// sixteen base pages therefore puts sixteen PTEs on one chain — the longer
// chains that make this organization "not so good", which the tests and
// benchmarks quantify.
type SPIndexTable struct {
	cfg     Config
	logSBF  uint
	buckets []sbucket
	nodes   *ptalloc.Arena[snode]

	stats pagetable.Counters
}

type sbucket struct {
	mu   sync.RWMutex
	head *snode
}

// snode tags base nodes with the full VPN and block nodes with the VPBN.
type snode struct {
	isBlock bool
	vpn     addr.VPN  // valid when !isBlock
	vpbn    addr.VPBN // block number (always set; the hash key)
	next    *snode
	word    pte.Word
	h       ptalloc.Handle
}

// allocNode carves a chain node from the arena. Caller holds the bucket
// lock and links the node itself.
func (t *SPIndexTable) allocNode(isBlock bool, vpn addr.VPN, vpbn addr.VPBN, w pte.Word) *snode {
	h, nd := t.nodes.Alloc()
	nd.isBlock, nd.vpn, nd.vpbn, nd.word, nd.h = isBlock, vpn, vpbn, w, h
	return nd
}

// NewSPIndex creates a superpage-index hashed page table with page blocks
// of 1<<logSBF base pages.
func NewSPIndex(cfg Config, logSBF uint) (*SPIndexTable, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if logSBF == 0 || logSBF > 4 {
		return nil, fmt.Errorf("hashed: sp-index block factor 1<<%d out of range", logSBF)
	}
	return &SPIndexTable{
		cfg:     cfg,
		logSBF:  logSBF,
		buckets: make([]sbucket, cfg.Buckets),
		nodes:   ptalloc.NewArena[snode](),
	}, nil
}

// MustNewSPIndex is NewSPIndex for known-good configurations.
func MustNewSPIndex(cfg Config, logSBF uint) *SPIndexTable {
	t, err := NewSPIndex(cfg, logSBF)
	if err != nil {
		panic(err)
	}
	return t
}

// Name implements pagetable.PageTable.
func (t *SPIndexTable) Name() string { return "hashed-spindex" }

func (t *SPIndexTable) bucketFor(vpbn addr.VPBN) *sbucket {
	return &t.buckets[pagetable.BucketIndex(pagetable.HashVPN(uint64(vpbn)), t.cfg.Buckets)]
}

// Lookup implements pagetable.PageTable: one probe hashed on the
// superpage index matches base nodes by VPN and block nodes by coverage.
func (t *SPIndexTable) Lookup(va addr.V) (pte.Entry, pagetable.WalkCost, bool) {
	vpn := addr.VPNOf(va)
	vpbn, boff := addr.BlockSplit(vpn, t.logSBF)
	b := t.bucketFor(vpbn)
	b.mu.RLock()
	var meter memcost.Meter
	cost := pagetable.WalkCost{Probes: 1}
	var e pte.Entry
	ok := false
	for nd := b.head; nd != nil; nd = nd.next {
		cost.Nodes++
		meter.Touch(t.cfg.CostModel, [2]int{0, nodeBytes})
		if !nd.word.Valid() {
			continue
		}
		if !nd.isBlock {
			if nd.vpn == vpn {
				e, ok = pte.EntryFromWord(nd.word, vpn, 0), true
				break
			}
			continue
		}
		if nd.vpbn != vpbn {
			continue
		}
		if nd.word.Kind() == pte.KindPartial && !nd.word.ValidAt(boff) {
			continue
		}
		e, ok = pte.EntryFromWord(nd.word, vpn, boff), true
		break
	}
	cost.Lines = meter.Lines()
	if cost.Lines == 0 {
		cost.Lines = 1 // empty bucket: the array's first node is read
	}
	b.mu.RUnlock()

	t.stats.NoteLookup(ok)
	return e, cost, ok
}

// Map implements pagetable.PageTable.
func (t *SPIndexTable) Map(vpn addr.VPN, ppn addr.PPN, attr pte.Attr) error {
	vpbn, boff := addr.BlockSplit(vpn, t.logSBF)
	b := t.bucketFor(vpbn)
	b.mu.Lock()
	defer b.mu.Unlock()
	for nd := b.head; nd != nil; nd = nd.next {
		if !nd.word.Valid() {
			continue
		}
		if !nd.isBlock && nd.vpn == vpn {
			return pagetable.ErrAlreadyMapped
		}
		if nd.isBlock && nd.vpbn == vpbn &&
			(nd.word.Kind() != pte.KindPartial || nd.word.ValidAt(boff)) {
			return pagetable.ErrAlreadyMapped
		}
	}
	nd := t.allocNode(false, vpn, vpbn, pte.MakeBase(ppn, attr))
	nd.next, b.head = b.head, nd
	t.stats.NoteInsert()
	return nil
}

// MapSuperpage implements pagetable.SuperpageMapper. Superpages larger
// than the hashing size "must be handled another way" (§4.2): this
// implementation replicates them once per covered block, and sub-block
// sizes are unsupported.
func (t *SPIndexTable) MapSuperpage(vpn addr.VPN, ppn addr.PPN, attr pte.Attr, size addr.Size) error {
	pages := size.Pages()
	if !size.Valid() || uint64(vpn)&(pages-1) != 0 || uint64(ppn)&(pages-1) != 0 {
		return fmt.Errorf("%w: superpage vpn %#x size %v", pagetable.ErrMisaligned, uint64(vpn), size)
	}
	sbf := uint64(1) << t.logSBF
	if pages < sbf {
		return fmt.Errorf("%w: %v below hashing size", pagetable.ErrUnsupported, size)
	}
	word := pte.MakeSuperpage(ppn, attr, size)
	firstBlock, _ := addr.BlockSplit(vpn, t.logSBF)
	for i := uint64(0); i < pages/sbf; i++ {
		if t.blockTaken(firstBlock+addr.VPBN(i), ^uint16(0)) {
			return pagetable.ErrAlreadyMapped
		}
	}
	for i := uint64(0); i < pages/sbf; i++ {
		vpbn := firstBlock + addr.VPBN(i)
		b := t.bucketFor(vpbn)
		b.mu.Lock()
		nd := t.allocNode(true, 0, vpbn, word)
		nd.next, b.head = b.head, nd
		b.mu.Unlock()
	}
	t.stats.NoteInsert()
	return nil
}

// blockTaken reports whether any mapping of block vpbn covers an offset
// in valid.
func (t *SPIndexTable) blockTaken(vpbn addr.VPBN, valid uint16) bool {
	b := t.bucketFor(vpbn)
	b.mu.RLock()
	defer b.mu.RUnlock()
	for nd := b.head; nd != nil; nd = nd.next {
		if !nd.word.Valid() || nd.vpbn != vpbn {
			continue
		}
		covered := nd.word.ValidMask()
		switch {
		case !nd.isBlock:
			_, boff := addr.BlockSplit(nd.vpn, t.logSBF)
			covered = 1 << boff
		case nd.word.Kind() != pte.KindPartial:
			covered = ^uint16(0)
		}
		if covered&valid != 0 {
			return true
		}
	}
	return false
}

// MapPartial implements pagetable.PartialMapper.
func (t *SPIndexTable) MapPartial(vpbn addr.VPBN, basePPN addr.PPN, attr pte.Attr, valid uint16) error {
	if valid == 0 {
		return fmt.Errorf("hashed: empty valid vector")
	}
	if uint64(basePPN)&(uint64(1)<<t.logSBF-1) != 0 {
		return fmt.Errorf("%w: psb frame block %#x", pagetable.ErrMisaligned, uint64(basePPN))
	}
	if t.blockTaken(vpbn, valid) {
		return pagetable.ErrAlreadyMapped
	}
	b := t.bucketFor(vpbn)
	b.mu.Lock()
	nd := t.allocNode(true, 0, vpbn, pte.MakePartial(basePPN, attr, valid, t.logSBF))
	nd.next, b.head = b.head, nd
	b.mu.Unlock()
	t.stats.NoteInsert()
	return nil
}

// Unmap implements pagetable.PageTable (base-page nodes only; block PTEs
// demote like MultiTable's).
func (t *SPIndexTable) Unmap(vpn addr.VPN) error {
	vpbn, boff := addr.BlockSplit(vpn, t.logSBF)
	sbf := uint64(1) << t.logSBF
	b := t.bucketFor(vpbn)
	b.mu.Lock()
	defer b.mu.Unlock()
	for link := &b.head; *link != nil; link = &(*link).next {
		nd := *link
		if !nd.word.Valid() {
			continue
		}
		if !nd.isBlock && nd.vpn == vpn {
			*link = nd.next
			t.nodes.Free(nd.h)
			t.stats.NoteRemove()
			return nil
		}
		if nd.isBlock && nd.vpbn == vpbn {
			switch nd.word.Kind() {
			case pte.KindPartial:
				if !nd.word.ValidAt(boff) {
					continue
				}
				nw := nd.word.WithValidMask(nd.word.ValidMask() &^ (1 << boff))
				if !nw.Valid() {
					*link = nd.next
					t.nodes.Free(nd.h)
					t.stats.NoteRemove()
					return nil
				}
				nd.word = nw
				t.stats.NoteRemove()
				return nil
			default:
				if nd.word.Size().Pages() > sbf {
					return fmt.Errorf("%w: vpn %#x inside %v superpage", pagetable.ErrUnsupported, uint64(vpn), nd.word.Size())
				}
				mask := uint16(1)<<sbf - 1
				if sbf == 16 {
					mask = ^uint16(0)
				}
				nd.word = pte.MakePartial(nd.word.PPN(), nd.word.Attr(), mask&^(1<<boff), t.logSBF)
				t.stats.NoteRemove()
				return nil
			}
		}
	}
	return pagetable.ErrNotMapped
}

// ProtectRange implements pagetable.PageTable: one probe per page block
// (all of a block's PTEs share a bucket, one advantage of this layout).
func (t *SPIndexTable) ProtectRange(r addr.Range, set, clear pte.Attr) (pagetable.WalkCost, error) {
	var cost pagetable.WalkCost
	r.Blocks(t.logSBF, func(vpbn addr.VPBN, lo, hi uint64) bool {
		cost.Probes++
		b := t.bucketFor(vpbn)
		b.mu.Lock()
		for nd := b.head; nd != nil; nd = nd.next {
			cost.Nodes++
			if !nd.word.Valid() || nd.vpbn != vpbn {
				continue
			}
			if !nd.isBlock {
				_, boff := addr.BlockSplit(nd.vpn, t.logSBF)
				if boff < lo || boff > hi {
					continue
				}
			}
			nd.word = nd.word.WithAttr(nd.word.Attr()&^clear | set)
		}
		b.mu.Unlock()
		return true
	})
	return cost, nil
}

// Size implements pagetable.PageTable.
func (t *SPIndexTable) Size() pagetable.Size {
	var nodes, mapped uint64
	sbf := uint64(1) << t.logSBF
	for i := range t.buckets {
		b := &t.buckets[i]
		b.mu.RLock()
		for nd := b.head; nd != nil; nd = nd.next {
			if !nd.word.Valid() {
				continue
			}
			nodes++
			switch {
			case !nd.isBlock:
				mapped++
			case nd.word.Kind() == pte.KindPartial:
				mapped += uint64(popcount(nd.word.ValidMask()))
			default:
				mapped += sbf
			}
		}
		b.mu.RUnlock()
	}
	return pagetable.Size{
		PTEBytes:   nodes * nodeBytes,
		FixedBytes: uint64(t.cfg.Buckets) * 8,
		Nodes:      nodes,
		Mappings:   mapped,
	}
}

// Stats implements pagetable.PageTable.
func (t *SPIndexTable) Stats() pagetable.Stats { return t.stats.Snapshot() }

// MemStats implements pagetable.MemReporter: one arena object per chain
// node (base, superpage replica, or psb word alike).
func (t *SPIndexTable) MemStats() pagetable.MemStats {
	return pagetable.MemStats{Nodes: t.nodes.Stats()}
}

// Reset implements pagetable.Resetter.
func (t *SPIndexTable) Reset() {
	// Quiescence contract (see core.Table.Reset): the caller's own
	// synchronization publishes these plain writes.
	for i := range t.buckets {
		t.buckets[i].head = nil
	}
	t.nodes.Reset()
	t.stats.Reset()
}

// ChainStats reports the load factor and the longest chain — the
// quantity §4.2's objection to superpage-index hashing is about: one
// 64KB region's base PTEs all share a bucket.
func (t *SPIndexTable) ChainStats() (alpha float64, maxChain int) {
	var nodes uint64
	for i := range t.buckets {
		b := &t.buckets[i]
		b.mu.RLock()
		n := 0
		for nd := b.head; nd != nil; nd = nd.next {
			n++
		}
		b.mu.RUnlock()
		nodes += uint64(n)
		if n > maxChain {
			maxChain = n
		}
	}
	return float64(nodes) / float64(t.cfg.Buckets), maxChain
}

func popcount(m uint16) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

var (
	_ pagetable.PageTable       = (*SPIndexTable)(nil)
	_ pagetable.SuperpageMapper = (*SPIndexTable)(nil)
	_ pagetable.PartialMapper   = (*SPIndexTable)(nil)
	_ pagetable.MemReporter     = (*SPIndexTable)(nil)
	_ pagetable.Resetter        = (*SPIndexTable)(nil)
)

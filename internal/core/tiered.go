package core

import (
	"fmt"
	"sync"

	"clusterpt/internal/addr"
	"clusterpt/internal/memcost"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/ptalloc"
	"clusterpt/internal/pte"
)

// Tiered implements the §7 multiple-page-size organization: "Two
// clustered page tables suffice for all page sizes between 4KB and 1MB
// — one clustered page table stores mappings for page sizes from 4KB to
// 64KB and another for larger page sizes upto 1MB." Conventional page
// tables would need one table per page size (five on the MIPS R4000).
//
// The fine tier is an ordinary clustered table (4KB base pages, 64KB
// blocks): base words, sub-block superpages (8KB–32KB), partial-subblock
// and 64KB block-superpage nodes all coreside there without replication.
// The coarse tier clusters 64KB-superpage words into 1MB page blocks:
// 128KB–512KB superpages replicate across slots of one node, 1MB
// superpages use a compact node, and larger sizes replicate one compact
// node per 1MB block. A TLB miss probes the fine tier first (most misses
// hit small pages), then the coarse tier.
type Tiered struct {
	fine   *Table
	coarse coarseTable
}

// Coarse-tier geometry: units are 64KB superpages, sixteen units per
// 1MB block.
const (
	coarseUnitPages = 16 // 64KB in base pages
	coarseLogUnit   = 4
	coarseSlots     = 16 // units per coarse node: 1MB blocks
	coarseLogSlots  = 4
	coarseNodeBytes = headerBytes + coarseSlots*pte.WordBytes
	coarseCompact   = headerBytes + pte.WordBytes
)

// coarseTable is the clustered table of 64KB-unit superpage words.
type coarseTable struct {
	cfg     Config
	buckets []coarseBucket
	nodes   *ptalloc.Arena[coarseNode]
	words   *ptalloc.SliceArena[pte.Word]
	mu      sync.Mutex
	nFull   uint64
	nComp   uint64
	mapped  uint64 // base pages represented
}

type coarseBucket struct {
	mu   sync.RWMutex
	head *coarseNode
}

type coarseNode struct {
	block   uint64 // vpn >> 8: 1MB-region number
	next    *coarseNode
	compact bool
	words   []pte.Word // superpage words, one per 64KB unit (or 1 if compact)
	h, wh   ptalloc.Handle
}

// NewTiered builds a two-tier clustered page table. cfg parameterizes
// the fine tier; the coarse tier shares its bucket count and cost model.
func NewTiered(cfg Config) (*Tiered, error) {
	fine, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &Tiered{
		fine: fine,
		coarse: coarseTable{
			cfg:     fine.cfg,
			buckets: make([]coarseBucket, fine.cfg.Buckets),
			nodes:   ptalloc.NewArena[coarseNode](),
			words:   ptalloc.NewSliceArena[pte.Word](),
		},
	}, nil
}

// MustNewTiered is NewTiered for known-good configurations.
func MustNewTiered(cfg Config) *Tiered {
	t, err := NewTiered(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Name implements pagetable.PageTable.
func (t *Tiered) Name() string { return "clustered-tiered" }

// Fine exposes the fine tier for promotion and range operations.
func (t *Tiered) Fine() *Table { return t.fine }

// Lookup implements pagetable.PageTable: fine tier first, then coarse.
func (t *Tiered) Lookup(va addr.V) (pte.Entry, pagetable.WalkCost, bool) {
	e, cost, ok := t.fine.Lookup(va)
	if ok {
		return e, cost, true
	}
	ce, ccost, cok := t.coarse.lookup(va)
	cost.Add(ccost)
	if !cok {
		return pte.Entry{}, cost, false
	}
	return ce, cost, true
}

// Map, Unmap, ProtectRange delegate small-page operations to the fine
// tier.
func (t *Tiered) Map(vpn addr.VPN, ppn addr.PPN, attr pte.Attr) error {
	if _, _, ok := t.coarse.lookup(addr.VAOf(vpn)); ok {
		return pagetable.ErrAlreadyMapped
	}
	return t.fine.Map(vpn, ppn, attr)
}

// Unmap implements pagetable.PageTable (fine tier only; large superpages
// are removed with UnmapSuperpage).
func (t *Tiered) Unmap(vpn addr.VPN) error {
	err := t.fine.Unmap(vpn)
	if err == nil {
		return nil
	}
	if _, _, ok := t.coarse.lookup(addr.VAOf(vpn)); ok {
		return fmt.Errorf("%w: vpn %#x inside a large superpage; use UnmapSuperpage",
			pagetable.ErrUnsupported, uint64(vpn))
	}
	return err
}

// ProtectRange implements pagetable.PageTable on the fine tier and
// whole-word updates on coarse nodes fully covered by the range.
func (t *Tiered) ProtectRange(r addr.Range, set, clear pte.Attr) (pagetable.WalkCost, error) {
	cost, err := t.fine.ProtectRange(r, set, clear)
	if err != nil {
		return cost, err
	}
	ccost := t.coarse.protectRange(r, set, clear)
	cost.Add(ccost)
	return cost, nil
}

// LogSBF delegates to the fine tier.
func (t *Tiered) LogSBF() uint { return t.fine.LogSBF() }

// MapPartial delegates to the fine tier.
func (t *Tiered) MapPartial(vpbn addr.VPBN, basePPN addr.PPN, attr pte.Attr, valid uint16) error {
	return t.fine.MapPartial(vpbn, basePPN, attr, valid)
}

// MapSuperpage dispatches by size: 4KB–64KB to the fine tier, larger to
// the coarse tier.
func (t *Tiered) MapSuperpage(vpn addr.VPN, ppn addr.PPN, attr pte.Attr, size addr.Size) error {
	if !size.Valid() {
		return fmt.Errorf("core: invalid superpage size %d", uint64(size))
	}
	if size.Pages() <= uint64(t.fine.cfg.SubblockFactor) {
		return t.fine.MapSuperpage(vpn, ppn, attr, size)
	}
	return t.coarse.mapSuperpage(vpn, ppn, attr, size)
}

// UnmapSuperpage removes a superpage from whichever tier holds it.
func (t *Tiered) UnmapSuperpage(vpn addr.VPN, size addr.Size) error {
	if size.Pages() <= uint64(t.fine.cfg.SubblockFactor) {
		return t.fine.UnmapSuperpage(vpn, size)
	}
	return t.coarse.unmapSuperpage(vpn, size)
}

// Size implements pagetable.PageTable: both tiers.
func (t *Tiered) Size() pagetable.Size {
	sz := t.fine.Size()
	t.coarse.mu.Lock()
	sz.PTEBytes += t.coarse.nFull*coarseNodeBytes + t.coarse.nComp*coarseCompact
	sz.Nodes += t.coarse.nFull + t.coarse.nComp
	sz.Mappings += t.coarse.mapped
	t.coarse.mu.Unlock()
	sz.FixedBytes += uint64(t.fine.cfg.Buckets) * 8
	return sz
}

// Stats implements pagetable.PageTable (fine-tier operation counts).
func (t *Tiered) Stats() pagetable.Stats { return t.fine.Stats() }

// MemStats implements pagetable.MemReporter: both tiers' arenas merged.
func (t *Tiered) MemStats() pagetable.MemStats {
	return t.fine.MemStats().Add(pagetable.MemStats{
		Nodes:   t.coarse.nodes.Stats(),
		Payload: t.coarse.words.Stats(),
	})
}

// Reset implements pagetable.Resetter on both tiers.
func (t *Tiered) Reset() {
	// Quiescence contract (see core.Table.Reset): the caller's own
	// synchronization publishes these plain writes.
	t.fine.Reset()
	c := &t.coarse
	for i := range c.buckets {
		c.buckets[i].head = nil
	}
	c.nodes.Reset()
	c.words.Reset()
	c.nFull, c.nComp, c.mapped = 0, 0, 0
}

// --- coarse tier internals ---

func (c *coarseTable) bucketFor(block uint64) *coarseBucket {
	return &c.buckets[pagetable.BucketIndex(pagetable.HashVPN(block), c.cfg.Buckets)]
}

// allocNode carves a coarse node and its word vector out of the tier's
// arenas.
func (c *coarseTable) allocNode(block uint64, compact bool, nwords int) *coarseNode {
	h, nd := c.nodes.Alloc()
	wh, words := c.words.Alloc(nwords)
	nd.block, nd.compact, nd.words, nd.h, nd.wh = block, compact, words, h, wh
	return nd
}

// unlinkFree unlinks nd and returns its storage to the arenas. Caller
// holds the bucket write lock.
func (c *coarseTable) unlinkFree(b *coarseBucket, nd *coarseNode) {
	c.unlink(b, nd)
	c.words.Free(nd.wh)
	c.nodes.Free(nd.h)
}

// split returns the 1MB-block number and unit offset for a vpn.
func coarseSplit(vpn addr.VPN) (block uint64, unit uint64) {
	return uint64(vpn) >> (coarseLogUnit + coarseLogSlots), uint64(vpn) >> coarseLogUnit & (coarseSlots - 1)
}

func (c *coarseTable) lookup(va addr.V) (pte.Entry, pagetable.WalkCost, bool) {
	vpn := addr.VPNOf(va)
	block, unit := coarseSplit(vpn)
	b := c.bucketFor(block)
	b.mu.RLock()
	defer b.mu.RUnlock()
	var meter memcost.Meter
	cost := pagetable.WalkCost{Probes: 1}
	for nd := b.head; nd != nil; nd = nd.next {
		cost.Nodes++
		if nd.block != block {
			meter.Touch(c.cfg.CostModel, [2]int{0, headerBytes})
			continue
		}
		w, off := nd.wordFor(unit)
		meter.Touch(c.cfg.CostModel, [2]int{0, headerBytes}, [2]int{off, pte.WordBytes})
		if w.Valid() {
			cost.Lines = meter.Lines()
			return pte.EntryFromWord(w, vpn, 0), cost, true
		}
	}
	cost.Lines = meter.Lines()
	if cost.Lines == 0 {
		cost.Lines = 1
	}
	return pte.Entry{}, cost, false
}

func (n *coarseNode) wordFor(unit uint64) (pte.Word, int) {
	if n.compact {
		return n.words[0], headerBytes
	}
	return n.words[unit], headerBytes + int(unit)*pte.WordBytes
}

func (c *coarseTable) mapSuperpage(vpn addr.VPN, ppn addr.PPN, attr pte.Attr, size addr.Size) error {
	pages := size.Pages()
	if uint64(vpn)&(pages-1) != 0 || uint64(ppn)&(pages-1) != 0 {
		return fmt.Errorf("%w: superpage vpn %#x / ppn %#x", pagetable.ErrMisaligned, uint64(vpn), uint64(ppn))
	}
	if pages < coarseUnitPages {
		return fmt.Errorf("%w: %v belongs to the fine tier", pagetable.ErrUnsupported, size)
	}
	word := pte.MakeSuperpage(ppn, attr, size)
	units := pages / coarseUnitPages
	if units < coarseSlots {
		// 128KB–512KB: replicate the word at each covered unit slot of
		// one node.
		block, unit := coarseSplit(vpn)
		b := c.bucketFor(block)
		b.mu.Lock()
		defer b.mu.Unlock()
		nd := c.findFull(b, block)
		if nd == nil {
			if c.hasCompact(b, block) {
				return pagetable.ErrAlreadyMapped
			}
			nd = c.allocNode(block, false, coarseSlots)
			nd.next, b.head = b.head, nd
			c.account(1, 0, 0)
		}
		for i := uint64(0); i < units; i++ {
			if nd.words[unit+i].Valid() {
				return pagetable.ErrAlreadyMapped
			}
		}
		for i := uint64(0); i < units; i++ {
			nd.words[unit+i] = word
		}
		c.account(0, 0, int64(pages))
		return nil
	}
	// 1MB and larger: one compact node per covered 1MB block.
	firstBlock, _ := coarseSplit(vpn)
	blocks := units / coarseSlots
	var inserted []*coarseNode
	for i := uint64(0); i < blocks; i++ {
		block := firstBlock + i
		b := c.bucketFor(block)
		b.mu.Lock()
		if c.findFull(b, block) != nil || c.hasCompact(b, block) {
			b.mu.Unlock()
			c.rollback(inserted)
			return pagetable.ErrAlreadyMapped
		}
		nd := c.allocNode(block, true, 1)
		nd.words[0] = word
		nd.next, b.head = b.head, nd
		b.mu.Unlock()
		inserted = append(inserted, nd)
	}
	c.account(0, int64(blocks), int64(pages))
	return nil
}

func (c *coarseTable) unmapSuperpage(vpn addr.VPN, size addr.Size) error {
	pages := size.Pages()
	if uint64(vpn)&(pages-1) != 0 {
		return fmt.Errorf("%w: superpage vpn %#x", pagetable.ErrMisaligned, uint64(vpn))
	}
	units := pages / coarseUnitPages
	if units < coarseSlots {
		block, unit := coarseSplit(vpn)
		b := c.bucketFor(block)
		b.mu.Lock()
		defer b.mu.Unlock()
		nd := c.findFull(b, block)
		if nd == nil || !nd.words[unit].Valid() || nd.words[unit].Size() != size {
			return pagetable.ErrNotMapped
		}
		for i := uint64(0); i < units; i++ {
			nd.words[unit+i] = pte.Invalid
		}
		if nd.empty() {
			c.unlinkFree(b, nd)
			c.account(-1, 0, -int64(pages))
		} else {
			c.account(0, 0, -int64(pages))
		}
		return nil
	}
	firstBlock, _ := coarseSplit(vpn)
	blocks := units / coarseSlots
	for i := uint64(0); i < blocks; i++ {
		block := firstBlock + i
		b := c.bucketFor(block)
		b.mu.Lock()
		found := false
		for nd := b.head; nd != nil; nd = nd.next {
			if nd.block == block && nd.compact && nd.words[0].Valid() && nd.words[0].Size() == size {
				c.unlinkFree(b, nd)
				found = true
				break
			}
		}
		b.mu.Unlock()
		if !found {
			return pagetable.ErrNotMapped
		}
	}
	c.account(0, -int64(blocks), -int64(pages))
	return nil
}

func (c *coarseTable) protectRange(r addr.Range, set, clear pte.Attr) pagetable.WalkCost {
	var cost pagetable.WalkCost
	if r.Empty() {
		return cost
	}
	firstBlock, _ := coarseSplit(r.FirstVPN())
	lastBlock, _ := coarseSplit(r.LastVPN())
	fullPages := uint64(coarseUnitPages * coarseSlots)
	for block := firstBlock; block <= lastBlock; block++ {
		cost.Probes++
		// Only whole-superpage coverage updates in place; partial
		// coverage of large superpages requires OS-driven demotion.
		start := addr.VAOf(addr.VPN(block * fullPages))
		covered := r.Start <= start && r.End() >= start+addr.V(fullPages*addr.BasePageSize)
		b := c.bucketFor(block)
		b.mu.Lock()
		for nd := b.head; nd != nil; nd = nd.next {
			cost.Nodes++
			if nd.block != block || !covered {
				continue
			}
			for i, w := range nd.words {
				if w.Valid() {
					nd.words[i] = w.WithAttr(w.Attr()&^clear | set)
				}
			}
		}
		b.mu.Unlock()
	}
	return cost
}

func (c *coarseTable) findFull(b *coarseBucket, block uint64) *coarseNode {
	for nd := b.head; nd != nil; nd = nd.next {
		if nd.block == block && !nd.compact {
			return nd
		}
	}
	return nil
}

func (c *coarseTable) hasCompact(b *coarseBucket, block uint64) bool {
	for nd := b.head; nd != nil; nd = nd.next {
		if nd.block == block && nd.compact && nd.words[0].Valid() {
			return true
		}
	}
	return false
}

func (n *coarseNode) empty() bool {
	for _, w := range n.words {
		if w.Valid() {
			return false
		}
	}
	return true
}

func (c *coarseTable) unlink(b *coarseBucket, target *coarseNode) {
	for link := &b.head; *link != nil; link = &(*link).next {
		if *link == target {
			*link = target.next
			return
		}
	}
}

func (c *coarseTable) rollback(inserted []*coarseNode) {
	for _, nd := range inserted {
		b := c.bucketFor(nd.block)
		b.mu.Lock()
		c.unlinkFree(b, nd)
		b.mu.Unlock()
	}
}

func (c *coarseTable) account(dFull, dComp, dMapped int64) {
	c.mu.Lock()
	c.nFull = uint64(int64(c.nFull) + dFull)
	c.nComp = uint64(int64(c.nComp) + dComp)
	c.mapped = uint64(int64(c.mapped) + dMapped)
	c.mu.Unlock()
}

var (
	_ pagetable.PageTable       = (*Tiered)(nil)
	_ pagetable.SuperpageMapper = (*Tiered)(nil)
	_ pagetable.PartialMapper   = (*Tiered)(nil)
	_ pagetable.MemReporter     = (*Tiered)(nil)
	_ pagetable.Resetter        = (*Tiered)(nil)
)

package hashed

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"clusterpt/internal/addr"
	"clusterpt/internal/memcost"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/ptalloc"
	"clusterpt/internal/pte"
)

// SearchOrder selects which page table a MultiTable probes first on a TLB
// miss. §4.2 argues the tables should be sequenced from the page size
// most likely to miss; §6.3 notes that for workloads dominated by
// partial-subblock PTEs, probing the 64KB table first would be better.
type SearchOrder int

// Search orders for MultiTable.
const (
	// BaseFirst probes the 4KB table, then the block table — the order
	// the paper's experiments use.
	BaseFirst SearchOrder = iota
	// SuperFirst probes the block table, then the 4KB table.
	SuperFirst
)

// wordTable is an open hash table from an opaque key to one mapping word:
// the building block for MultiTable. 24 bytes per node.
type wordTable struct {
	cfg     Config
	buckets []wbucket
	arena   *ptalloc.Arena[wnode]
	nNodes  atomic.Uint64
}

type wbucket struct {
	mu   sync.RWMutex
	head *wnode
}

type wnode struct {
	key  uint64
	next *wnode
	word pte.Word
	h    ptalloc.Handle
}

func newWordTable(cfg Config) *wordTable {
	return &wordTable{
		cfg:     cfg,
		buckets: make([]wbucket, cfg.Buckets),
		arena:   ptalloc.NewArena[wnode](),
	}
}

// reset drops every node via arena reset. Callers must be quiescent and
// publish the reset through their own synchronization (see
// core.Table.Reset), so the bucket heads are cleared with plain writes.
func (t *wordTable) reset() {
	for i := range t.buckets {
		t.buckets[i].head = nil
	}
	t.arena.Reset()
	t.nNodes.Store(0)
}

func (t *wordTable) bucketFor(key uint64) *wbucket {
	return &t.buckets[pagetable.BucketIndex(pagetable.HashVPN(key), t.cfg.Buckets)]
}

// lookup walks the chain for key. A failed search scans the entire chain,
// which is what makes the wrong probe order expensive.
func (t *wordTable) lookup(key uint64) (pte.Word, pagetable.WalkCost, bool) {
	b := t.bucketFor(key)
	b.mu.RLock()
	defer b.mu.RUnlock()
	var meter memcost.Meter
	cost := pagetable.WalkCost{Probes: 1}
	for nd := b.head; nd != nil; nd = nd.next {
		cost.Nodes++
		meter.Touch(t.cfg.CostModel, [2]int{0, nodeBytes})
		if nd.key == key && nd.word.Valid() {
			cost.Lines = meter.Lines()
			return nd.word, cost, true
		}
	}
	// Probing an empty bucket still reads the bucket array's (invalid)
	// first node: one line.
	cost.Lines = meter.Lines()
	if cost.Lines == 0 {
		cost.Lines = 1
	}
	return pte.Invalid, cost, false
}

func (t *wordTable) insert(key uint64, w pte.Word) error {
	b := t.bucketFor(key)
	b.mu.Lock()
	defer b.mu.Unlock()
	for nd := b.head; nd != nil; nd = nd.next {
		if nd.key == key && nd.word.Valid() {
			return pagetable.ErrAlreadyMapped
		}
	}
	h, nd := t.arena.Alloc()
	nd.key, nd.word, nd.h = key, w, h
	nd.next, b.head = b.head, nd
	t.nNodes.Add(1)
	return nil
}

func (t *wordTable) remove(key uint64) (pte.Word, bool) {
	b := t.bucketFor(key)
	b.mu.Lock()
	defer b.mu.Unlock()
	for link := &b.head; *link != nil; link = &(*link).next {
		if nd := *link; nd.key == key && nd.word.Valid() {
			w := nd.word
			*link = nd.next
			t.arena.Free(nd.h)
			t.nNodes.Add(^uint64(0))
			return w, true
		}
	}
	return pte.Invalid, false
}

// update applies fn to the word stored for key; fn returning an invalid
// word removes the node. visited is the chain length scanned.
func (t *wordTable) update(key uint64, fn func(pte.Word) pte.Word) (visited int, found bool) {
	b := t.bucketFor(key)
	b.mu.Lock()
	defer b.mu.Unlock()
	for link := &b.head; *link != nil; link = &(*link).next {
		nd := *link
		visited++
		if nd.key == key && nd.word.Valid() {
			nw := fn(nd.word)
			if !nw.Valid() {
				*link = nd.next
				t.arena.Free(nd.h)
				t.nNodes.Add(^uint64(0))
			} else {
				nd.word = nw
			}
			return visited, true
		}
	}
	return visited, false
}

func (t *wordTable) nodes() uint64 { return t.nNodes.Load() }

// MultiTable is the multiple-page-table organization of §4.2: one hashed
// table per page size in use. This implementation keeps a 4KB base table
// keyed by VPN and a page-block table keyed by VPBN holding superpage and
// partial-subblock words; the search order is configurable. On a TLB miss
// the handler probes the tables in order, paying a full failed chain scan
// before moving on — the cost that makes hashed tables slow for
// superpage-heavy workloads in Figures 11b and 11c.
type MultiTable struct {
	cfg    Config
	logSBF uint
	order  SearchOrder
	base   *wordTable // key: VPN, base words
	super  *wordTable // key: VPBN, superpage/psb words

	stats pagetable.Counters
}

// NewMulti creates a multiple-page-table hashed organization with page
// blocks of 1<<logSBF base pages (4 gives the paper's 64KB).
func NewMulti(cfg Config, logSBF uint, order SearchOrder) (*MultiTable, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if logSBF == 0 || logSBF > 4 {
		return nil, fmt.Errorf("hashed: multi-table block factor 1<<%d out of range", logSBF)
	}
	return &MultiTable{
		cfg:    cfg,
		logSBF: logSBF,
		order:  order,
		base:   newWordTable(cfg),
		super:  newWordTable(cfg),
	}, nil
}

// MustNewMulti is NewMulti for known-good configurations.
func MustNewMulti(cfg Config, logSBF uint, order SearchOrder) *MultiTable {
	t, err := NewMulti(cfg, logSBF, order)
	if err != nil {
		panic(err)
	}
	return t
}

// Name implements pagetable.PageTable.
func (t *MultiTable) Name() string {
	if t.order == SuperFirst {
		return "hashed-multi-superfirst"
	}
	return "hashed-multi"
}

// Lookup implements pagetable.PageTable: ordered probes of the per-size
// tables.
func (t *MultiTable) Lookup(va addr.V) (pte.Entry, pagetable.WalkCost, bool) {
	vpn := addr.VPNOf(va)
	vpbn, boff := addr.BlockSplit(vpn, t.logSBF)

	probeBase := func(cost *pagetable.WalkCost) (pte.Entry, bool) {
		w, c, ok := t.base.lookup(uint64(vpn))
		cost.Add(c)
		if !ok {
			return pte.Entry{}, false
		}
		return pte.EntryFromWord(w, vpn, 0), true
	}
	probeSuper := func(cost *pagetable.WalkCost) (pte.Entry, bool) {
		w, c, ok := t.super.lookup(uint64(vpbn))
		cost.Add(c)
		if !ok {
			return pte.Entry{}, false
		}
		if w.Kind() == pte.KindPartial && !w.ValidAt(boff) {
			return pte.Entry{}, false
		}
		return pte.EntryFromWord(w, vpn, boff), true
	}

	var cost pagetable.WalkCost
	var e pte.Entry
	var ok bool
	if t.order == BaseFirst {
		if e, ok = probeBase(&cost); !ok {
			e, ok = probeSuper(&cost)
		}
	} else {
		if e, ok = probeSuper(&cost); !ok {
			e, ok = probeBase(&cost)
		}
	}
	t.stats.NoteLookup(ok)
	return e, cost, ok
}

// Map implements pagetable.PageTable: base pages go to the 4KB table.
func (t *MultiTable) Map(vpn addr.VPN, ppn addr.PPN, attr pte.Attr) error {
	vpbn, boff := addr.BlockSplit(vpn, t.logSBF)
	if w, _, ok := t.super.lookup(uint64(vpbn)); ok {
		if w.Kind() != pte.KindPartial || w.ValidAt(boff) {
			return pagetable.ErrAlreadyMapped
		}
		// Absorb into the psb word when properly placed and compatible.
		if w.PPNAt(boff) == ppn && w.Attr().Protection() == attr.Protection() {
			t.super.update(uint64(vpbn), func(old pte.Word) pte.Word {
				return old.WithValidMask(old.ValidMask() | 1<<boff)
			})
			t.stats.NoteInsert()
			return nil
		}
		// Otherwise the page simply lives in the base table alongside
		// the psb PTE; lookups find whichever the probe order reaches
		// with a valid covering bit.
	}
	if err := t.base.insert(uint64(vpn), pte.MakeBase(ppn, attr)); err != nil {
		return err
	}
	t.stats.NoteInsert()
	return nil
}

// MapSuperpage implements pagetable.SuperpageMapper. Superpages smaller
// than the page block cannot be stored (the block table is keyed by VPBN),
// mirroring the inflexibility §4.2 attributes to this organization; sizes
// of one block or more are replicated once per covered block.
func (t *MultiTable) MapSuperpage(vpn addr.VPN, ppn addr.PPN, attr pte.Attr, size addr.Size) error {
	if !size.Valid() {
		return fmt.Errorf("hashed: invalid superpage size %d", uint64(size))
	}
	pages := size.Pages()
	if uint64(vpn)&(pages-1) != 0 || uint64(ppn)&(pages-1) != 0 {
		return fmt.Errorf("%w: superpage vpn %#x / ppn %#x", pagetable.ErrMisaligned, uint64(vpn), uint64(ppn))
	}
	sbf := uint64(1) << t.logSBF
	if pages < sbf {
		return fmt.Errorf("%w: %v superpage smaller than the %v page block",
			pagetable.ErrUnsupported, size, addr.Size(sbf*addr.BasePageSize))
	}
	word := pte.MakeSuperpage(ppn, attr, size)
	firstBlock, _ := addr.BlockSplit(vpn, t.logSBF)
	blocks := pages / sbf
	var inserted []addr.VPBN
	for i := uint64(0); i < blocks; i++ {
		vpbn := firstBlock + addr.VPBN(i)
		if err := t.checkBlockFree(vpbn, ^uint16(0)); err == nil {
			if err := t.super.insert(uint64(vpbn), word); err == nil {
				inserted = append(inserted, vpbn)
				continue
			}
		}
		for _, v := range inserted {
			t.super.remove(uint64(v))
		}
		return pagetable.ErrAlreadyMapped
	}
	t.stats.NoteInsert()
	return nil
}

// LogSBF implements pagetable.PartialMapper.
func (t *MultiTable) LogSBF() uint { return t.logSBF }

// MapPartial implements pagetable.PartialMapper.
func (t *MultiTable) MapPartial(vpbn addr.VPBN, basePPN addr.PPN, attr pte.Attr, valid uint16) error {
	if valid == 0 {
		return fmt.Errorf("hashed: empty valid vector")
	}
	sbf := uint(1) << t.logSBF
	if sbf < 16 && valid>>sbf != 0 {
		return fmt.Errorf("hashed: valid vector %#x exceeds block factor %d", valid, sbf)
	}
	if uint64(basePPN)&(uint64(sbf)-1) != 0 {
		return fmt.Errorf("%w: psb frame block %#x", pagetable.ErrMisaligned, uint64(basePPN))
	}
	if err := t.checkBlockFree(vpbn, valid); err != nil {
		return err
	}
	// Merge into an existing compatible psb word (incremental creation).
	if w, _, ok := t.super.lookup(uint64(vpbn)); ok &&
		w.Kind() == pte.KindPartial && w.PPN() == basePPN &&
		w.Attr().Protection() == attr.Protection() {
		t.super.update(uint64(vpbn), func(old pte.Word) pte.Word {
			return old.WithValidMask(old.ValidMask() | valid)
		})
		t.stats.NoteInsert()
		return nil
	}
	if err := t.super.insert(uint64(vpbn), pte.MakePartial(basePPN, attr, valid, t.logSBF)); err != nil {
		return err
	}
	t.stats.NoteInsert()
	return nil
}

// checkBlockFree rejects overlap between a new block-table word covering
// the given offsets and existing mappings in either table.
func (t *MultiTable) checkBlockFree(vpbn addr.VPBN, valid uint16) error {
	if w, _, ok := t.super.lookup(uint64(vpbn)); ok {
		if w.Kind() != pte.KindPartial || w.ValidMask()&valid != 0 {
			return pagetable.ErrAlreadyMapped
		}
	}
	sbf := uint64(1) << t.logSBF
	for boff := uint64(0); boff < sbf; boff++ {
		if valid>>boff&1 == 0 {
			continue
		}
		vpn := addr.BlockJoin(vpbn, boff, t.logSBF)
		if _, _, ok := t.base.lookup(uint64(vpn)); ok {
			return pagetable.ErrAlreadyMapped
		}
	}
	return nil
}

// Unmap implements pagetable.PageTable. Removing one base page of a
// block-sized superpage demotes it to a partial-subblock PTE in place;
// larger superpages must be removed with UnmapSuperpage.
func (t *MultiTable) Unmap(vpn addr.VPN) error {
	if _, ok := t.base.remove(uint64(vpn)); ok {
		t.stats.NoteRemove()
		return nil
	}
	vpbn, boff := addr.BlockSplit(vpn, t.logSBF)
	sbf := uint64(1) << t.logSBF
	w, _, ok := t.super.lookup(uint64(vpbn))
	if !ok {
		return pagetable.ErrNotMapped
	}
	switch w.Kind() {
	case pte.KindPartial:
		if !w.ValidAt(boff) {
			return pagetable.ErrNotMapped
		}
		// An empty vector makes the word invalid, and update removes it.
		t.super.update(uint64(vpbn), func(old pte.Word) pte.Word {
			return old.WithValidMask(old.ValidMask() &^ (1 << boff))
		})
	default: // superpage
		if w.Size().Pages() > sbf {
			return fmt.Errorf("%w: vpn %#x inside a %v superpage; use UnmapSuperpage",
				pagetable.ErrUnsupported, uint64(vpn), w.Size())
		}
		mask := uint16(1)<<sbf - 1
		if sbf == 16 {
			mask = ^uint16(0)
		}
		t.super.update(uint64(vpbn), func(old pte.Word) pte.Word {
			return pte.MakePartial(old.PPN(), old.Attr(), mask&^(1<<boff), t.logSBF)
		})
	}
	t.stats.NoteRemove()
	return nil
}

// UnmapSuperpage removes an entire superpage installed with MapSuperpage.
func (t *MultiTable) UnmapSuperpage(vpn addr.VPN, size addr.Size) error {
	pages := size.Pages()
	if !size.Valid() || uint64(vpn)&(pages-1) != 0 {
		return fmt.Errorf("%w: superpage vpn %#x size %v", pagetable.ErrMisaligned, uint64(vpn), size)
	}
	sbf := uint64(1) << t.logSBF
	if pages < sbf {
		return fmt.Errorf("%w: sub-block superpages are never stored", pagetable.ErrUnsupported)
	}
	firstBlock, _ := addr.BlockSplit(vpn, t.logSBF)
	blocks := pages / sbf
	for i := uint64(0); i < blocks; i++ {
		vpbn := firstBlock + addr.VPBN(i)
		w, _, ok := t.super.lookup(uint64(vpbn))
		if !ok || w.Kind() != pte.KindSuperpage || w.Size() != size {
			return pagetable.ErrNotMapped
		}
	}
	for i := uint64(0); i < blocks; i++ {
		t.super.remove(uint64(firstBlock + addr.VPBN(i)))
	}
	t.stats.NoteRemove()
	return nil
}

// ProtectRange implements pagetable.PageTable: one base-table probe per
// page plus one block-table probe per block.
func (t *MultiTable) ProtectRange(r addr.Range, set, clear pte.Attr) (pagetable.WalkCost, error) {
	var cost pagetable.WalkCost
	r.Pages(func(vpn addr.VPN) bool {
		cost.Probes++
		visited, _ := t.base.update(uint64(vpn), func(w pte.Word) pte.Word {
			return w.WithAttr(w.Attr()&^clear | set)
		})
		cost.Nodes += visited
		return true
	})
	r.Blocks(t.logSBF, func(vpbn addr.VPBN, lo, hi uint64) bool {
		cost.Probes++
		full := lo == 0 && hi == uint64(1)<<t.logSBF-1
		visited, _ := t.super.update(uint64(vpbn), func(w pte.Word) pte.Word {
			covered := uint64(w.ValidMask())
			if w.Kind() == pte.KindSuperpage {
				covered = ^uint64(0)
			}
			opMask := (uint64(1)<<(hi-lo+1) - 1) << lo
			if covered&^opMask != 0 && !full {
				// Partial coverage of a block PTE is not representable in
				// this organization without demotion; apply to the whole
				// word as real systems do for whole-superpage mprotect.
				return w
			}
			return w.WithAttr(w.Attr()&^clear | set)
		})
		cost.Nodes += visited
		return true
	})
	return cost, nil
}

// Size implements pagetable.PageTable. "The spatial overhead of
// supporting many page tables mitigates its potential to improve page
// table size": both bucket arrays count as fixed overhead.
func (t *MultiTable) Size() pagetable.Size {
	baseN, superN := t.base.nodes(), t.super.nodes()
	var mapped uint64 = baseN
	sbf := uint64(1) << t.logSBF
	// Count pages represented by block-table words.
	for i := range t.super.buckets {
		b := &t.super.buckets[i]
		b.mu.RLock()
		for nd := b.head; nd != nil; nd = nd.next {
			if !nd.word.Valid() {
				continue
			}
			if nd.word.Kind() == pte.KindPartial {
				mapped += uint64(bits.OnesCount16(nd.word.ValidMask()))
			} else {
				mapped += sbf
			}
		}
		b.mu.RUnlock()
	}
	return pagetable.Size{
		PTEBytes:   (baseN + superN) * nodeBytes,
		FixedBytes: 2 * uint64(t.cfg.Buckets) * 8,
		Nodes:      baseN + superN,
		Mappings:   mapped,
	}
}

// Stats implements pagetable.PageTable.
func (t *MultiTable) Stats() pagetable.Stats { return t.stats.Snapshot() }

// MemStats implements pagetable.MemReporter: the sum of both per-size
// tables' node arenas.
func (t *MultiTable) MemStats() pagetable.MemStats {
	return pagetable.MemStats{
		Nodes: t.base.arena.Stats().Add(t.super.arena.Stats()),
	}
}

// Reset implements pagetable.Resetter.
func (t *MultiTable) Reset() {
	t.base.reset()
	t.super.reset()
	t.stats.Reset()
}

var (
	_ pagetable.PageTable       = (*MultiTable)(nil)
	_ pagetable.SuperpageMapper = (*MultiTable)(nil)
	_ pagetable.PartialMapper   = (*MultiTable)(nil)
	_ pagetable.MemReporter     = (*MultiTable)(nil)
	_ pagetable.Resetter        = (*MultiTable)(nil)
)

// Package tlb simulates the TLB organizations the paper evaluates (§4.1,
// §6): a conventional single-page-size TLB, a superpage TLB, a
// partial-subblock TLB, and a complete-subblock TLB with optional
// subblock prefetching (§4.4). All are fully associative with true LRU
// replacement, matching the paper's 64-entry base case.
//
// The simulator separates access from fill: Access reports whether the
// TLB covers a virtual address, and on a miss the caller services it from
// a page table and calls Insert (or InsertBlock for prefetch). The
// complete-subblock TLB distinguishes block misses, which allocate an
// entry and may replace another, from subblock misses, which only add a
// mapping to an existing entry.
package tlb

import (
	"fmt"

	"clusterpt/internal/addr"
	"clusterpt/internal/mmu"
	"clusterpt/internal/pte"
)

// Kind selects the TLB organization.
type Kind int

// TLB organizations.
const (
	// SinglePageSize is a conventional TLB: one 4KB page per entry.
	SinglePageSize Kind = iota
	// Superpage entries cover a power-of-two-sized, aligned page of any
	// supported size.
	Superpage
	// PartialSubblock entries cover an aligned page block with one base
	// frame and a valid bit vector; pages not properly placed fall back
	// to single-page entries.
	PartialSubblock
	// CompleteSubblock entries cover an aligned page block with one PPN
	// per subblock — no placement requirement.
	CompleteSubblock
)

// String names the organization.
func (k Kind) String() string {
	switch k {
	case SinglePageSize:
		return "single-page-size"
	case Superpage:
		return "superpage"
	case PartialSubblock:
		return "partial-subblock"
	case CompleteSubblock:
		return "complete-subblock"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config parameterizes a simulated TLB.
type Config struct {
	// Kind is the organization; default SinglePageSize.
	Kind Kind
	// Entries is the entry count; default 64 (§6.1), at most
	// MaxEntries.
	Entries int
	// LogSBF is the subblock geometry for the subblock kinds; default 4
	// (16 subblocks, 64KB blocks).
	LogSBF uint
}

// MaxEntries bounds Config.Entries: 64× the largest entry count the
// paper's sweeps use (1024). Slots are int32 and the index sizes its
// tables from the entry count, so a bound keeps an absurd request an
// error rather than an out-of-memory crash.
const MaxEntries = 1 << 16

func (c *Config) fill() error {
	if c.Entries == 0 {
		c.Entries = 64
	}
	if c.Entries < 1 || c.Entries > MaxEntries {
		return fmt.Errorf("tlb: entries %d outside [1, %d]", c.Entries, MaxEntries)
	}
	if c.LogSBF == 0 {
		c.LogSBF = 4
	}
	if c.LogSBF > 4 {
		return fmt.Errorf("tlb: LogSBF %d exceeds the 16-bit valid vector", c.LogSBF)
	}
	return nil
}

// Stats counts TLB traffic in the hierarchy-wide shape (mmu.Stats), so
// per-level numbers are directly comparable in reports. For the
// complete-subblock kind Misses = BlockMisses + SubblockMisses.
type Stats = mmu.Stats

// entry is one fully-associative TLB slot.
type entry struct {
	valid bool
	// format distinguishes what the slot holds:
	//   single:  tag covers one base page (vpn), frame ppn
	//   span:    tag covers a superpage (base vpn + size)
	//   psb:     tag covers a page block (vpbn) with valid vector + base frame
	//   csb:     tag covers a page block (vpbn) with per-subblock frames
	format format
	vpn    addr.VPN
	size   addr.Size
	vpbn   addr.VPBN
	mask   uint16
	ppn    addr.PPN
	ppns   []addr.PPN
	lru    uint64
}

type format uint8

const (
	fSingle format = iota
	fSpan
	fPSB
	fCSB
)

// Result reports the outcome of one access (the hierarchy-wide shape).
type Result = mmu.Result

// TLB is a simulated, fully-associative, true-LRU TLB.
type TLB struct {
	cfg     Config
	entries []entry
	tick    uint64
	stats   Stats

	// idx indexes resident tags for O(1) lookup.
	idx *tlbIndex

	// The replacement rule is: the lowest-index invalid slot first,
	// else the least recently used entry. lruPrev/lruNext thread the
	// valid slots into a doubly-linked list in ascending-lru order
	// (lruHead is the coldest), and free is the fill watermark: slots
	// at or above it have never held an entry since the last Flush.
	// Together they make victim O(1). lru values are unique (at most
	// one entry's lru is written per tick), so the least recently used
	// entry is the list head; and since claim only ever fills
	// victim's choice, never-used slots are consumed in ascending index
	// order.
	lruPrev, lruNext []int32
	lruHead, lruTail int32
	free             int32

	// freed holds slots below the fill watermark that Invalidate
	// emptied, kept in ascending index order. Every valid slot sits
	// below free, so the lowest-index invalid slot is min(freed) when
	// freed is non-empty and free otherwise.
	freed []int32

	// One-entry MRU filter: the outcome of the last Access, valid until
	// anything changes coverage (Insert/InsertBlock/Flush). Repeating
	// the same VPN replays the outcome — same slot touch or same miss —
	// without probing the index.
	mruOK   bool
	mruVPN  addr.VPN
	mruSlot int32 // covering slot, or -1 for a remembered miss
	mruRes  Result
}

// New creates a TLB.
func New(cfg Config) (*TLB, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return &TLB{
		cfg:     cfg,
		entries: make([]entry, cfg.Entries),
		idx:     newIndex(cfg.Entries, cfg.LogSBF),
		lruPrev: make([]int32, cfg.Entries),
		lruNext: make([]int32, cfg.Entries),
		lruHead: -1,
		lruTail: -1,
	}, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config) *TLB {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Kind returns the organization.
func (t *TLB) Kind() Kind { return t.cfg.Kind }

// Name implements mmu.Level.
func (t *TLB) Name() string { return "tlb-" + t.cfg.Kind.String() }

// Entries returns the entry count.
func (t *TLB) Entries() int { return t.cfg.Entries }

// Access looks up va, updating LRU state and statistics.
func (t *TLB) Access(va addr.V) Result {
	vpn := addr.VPNOf(va)
	t.tick++
	t.stats.Accesses++
	if t.mruOK && t.mruVPN == vpn {
		// Coverage is unchanged since the remembered access, so the
		// outcome replays exactly.
		if t.mruSlot >= 0 {
			t.entries[t.mruSlot].lru = t.tick
			t.lruTouch(t.mruSlot)
			t.stats.Hits++
			return Result{Hit: true}
		}
		t.recordMiss(t.mruRes)
		return t.mruRes
	}
	slot := t.idx.lookup(vpn, t.entries)
	if slot >= 0 {
		t.entries[slot].lru = t.tick
		t.lruTouch(slot)
		t.stats.Hits++
		t.remember(vpn, slot, Result{Hit: true})
		return Result{Hit: true}
	}
	var res Result
	if t.cfg.Kind == CompleteSubblock {
		vpbn, _ := addr.BlockSplit(vpn, t.cfg.LogSBF)
		if t.idx.lookupBlock(vpbn) >= 0 {
			res.SubblockMiss = true
		}
	}
	t.recordMiss(res)
	t.remember(vpn, -1, res)
	return res
}

// recordMiss bumps the miss counters for one miss with outcome res.
func (t *TLB) recordMiss(res Result) {
	t.stats.Misses++
	if t.cfg.Kind == CompleteSubblock {
		if res.SubblockMiss {
			t.stats.SubblockMisses++
		} else {
			t.stats.BlockMisses++
		}
	}
}

// remember stores the MRU filter state.
func (t *TLB) remember(vpn addr.VPN, slot int32, res Result) {
	t.mruOK, t.mruVPN, t.mruSlot, t.mruRes = true, vpn, slot, res
}

// forget invalidates the MRU filter; every coverage change calls it.
func (t *TLB) forget() { t.mruOK = false }

// Translate returns the frame for va if the TLB covers it, without
// touching LRU state or statistics (a debugging aid). It shares the
// index lookup with Access rather than re-dispatching on entry formats.
func (t *TLB) Translate(va addr.V) (addr.PPN, bool) {
	vpn := addr.VPNOf(va)
	slot := t.idx.lookup(vpn, t.entries)
	if slot < 0 {
		return 0, false
	}
	e := &t.entries[slot]
	switch e.format {
	case fSingle:
		return e.ppn, true
	case fSpan:
		return e.ppn + addr.PPN(vpn-e.vpn), true
	case fPSB:
		_, boff := addr.BlockSplit(vpn, t.cfg.LogSBF)
		return e.ppn + addr.PPN(boff), true
	case fCSB:
		_, boff := addr.BlockSplit(vpn, t.cfg.LogSBF)
		return e.ppns[boff], true
	}
	return 0, false
}

// lruUnlink removes slot v from the recency list.
func (t *TLB) lruUnlink(v int32) {
	p, n := t.lruPrev[v], t.lruNext[v]
	if p >= 0 {
		t.lruNext[p] = n
	} else {
		t.lruHead = n
	}
	if n >= 0 {
		t.lruPrev[n] = p
	} else {
		t.lruTail = p
	}
}

// lruAppend makes slot v the most recently used.
func (t *TLB) lruAppend(v int32) {
	t.lruPrev[v] = t.lruTail
	t.lruNext[v] = -1
	if t.lruTail >= 0 {
		t.lruNext[t.lruTail] = v
	} else {
		t.lruHead = v
	}
	t.lruTail = v
}

// lruTouch moves slot v to the MRU end; callers pair it with every lru
// assignment so the list order stays the lru order.
func (t *TLB) lruTouch(v int32) {
	if t.lruTail == v {
		return
	}
	t.lruUnlink(v)
	t.lruAppend(v)
}

// victim returns the LRU slot for replacement: the lowest-index invalid
// slot if one exists, else the least recently used entry.
func (t *TLB) victim() int32 {
	if len(t.freed) > 0 {
		// Invalidated slots sit below the watermark, so the lowest of
		// them is the lowest-index invalid slot.
		v := t.freed[0]
		copy(t.freed, t.freed[1:])
		t.freed = t.freed[:len(t.freed)-1]
		return v
	}
	if int(t.free) < len(t.entries) {
		v := t.free
		t.free++
		return v
	}
	t.stats.Replacements++
	return t.lruHead
}

// claim takes the victim slot for a new entry: it unregisters the
// slot's old contents from the index and the recency list and returns
// the slot valid, stamped with the current tick and otherwise zeroed
// but for its frame array, for the caller to fill in place and then
// install.
func (t *TLB) claim() (int32, *entry) {
	v := t.victim()
	e := &t.entries[v]
	if e.valid {
		t.idx.remove(e, v, t.entries)
		t.lruUnlink(v)
	}
	ppns := e.ppns
	*e = entry{}
	e.valid, e.lru, e.ppns = true, t.tick, ppns
	return v, e
}

// install registers claimed slot v, now holding its new entry, with
// the index and makes it the most recently used.
func (t *TLB) install(v int32) {
	t.idx.add(&t.entries[v], v)
	t.lruAppend(v)
}

// InsertWord is the TLB's fill core: it loads the translation that
// mapping word w gives the faulting page vpn. The entry format stored
// depends on the TLB kind and the word's kind, per §4–§5:
//
//   - single-page-size TLBs always store one base page;
//   - superpage TLBs store the whole superpage when the word is one;
//   - partial-subblock TLBs store the psb vector, treat block-sized-or-
//     larger superpages as fully-valid blocks, and fall back to a
//     single-page entry otherwise;
//   - complete-subblock TLBs add the page's mapping to the block's entry,
//     allocating it on a block miss.
//
// The page's frame is w.Frame(vpn, boff), with boff vpn's block offset
// in the TLB's own LogSBF geometry.
func (t *TLB) InsertWord(vpn addr.VPN, w pte.Word) {
	t.tick++
	t.forget()
	vpbn, boff := addr.BlockSplit(vpn, t.cfg.LogSBF)
	ppn := w.Frame(vpn, uint64(boff))
	kind := w.Kind()
	switch t.cfg.Kind {
	case SinglePageSize:
		t.insertSingle(vpn, ppn)
	case Superpage:
		if kind == pte.KindSuperpage {
			size := w.Size()
			t.insertSpan(vpn&^addr.VPN(size.Pages()-1), size, w.PPN())
			return
		}
		t.insertSingle(vpn, ppn)
	case PartialSubblock:
		sbf := uint64(1) << t.cfg.LogSBF
		switch {
		case kind == pte.KindPartial:
			t.insertPSB(vpbn, w.ValidMask(), ppn-addr.PPN(boff))
		case kind == pte.KindSuperpage && w.Size().Pages() >= sbf:
			// A superpage is a fully-valid properly-placed block (§4.3).
			t.insertPSB(vpbn, uint16(uint32(1)<<sbf-1), ppn-addr.PPN(boff))
		default:
			t.insertSingle(vpn, ppn)
		}
	case CompleteSubblock:
		if s := t.idx.lookupBlock(vpbn); s >= 0 {
			// Subblock miss service: add the mapping, no replacement. The
			// block tag is unchanged, so the index needs no update.
			blk := &t.entries[s]
			blk.mask |= 1 << boff
			blk.ppns[boff] = ppn
			blk.lru = t.tick
			t.lruTouch(s)
			return
		}
		v, blk := t.claim()
		blk.format, blk.vpbn, blk.mask = fCSB, vpbn, 1<<boff
		blk.ppns = t.csbFrames(blk.ppns)
		blk.ppns[boff] = ppn
		t.install(v)
	}
}

// Insert loads the translation a page-table walk produced for the
// faulting page: an adapter over InsertWord. It is exact on every entry
// pte.EntryFromWord returns for a block offset in the TLB's LogSBF
// geometry — the documented domain of Entry.Word, where the entry's
// frame is the one its word gives the page.
func (t *TLB) Insert(e pte.Entry) { t.InsertWord(e.VPN, e.Word()) }

// InsertBlockWords services a complete-subblock block miss with
// prefetching (§4.4): all of the block's resident mappings load under
// one tag, so later references to the block's other pages are hits,
// never subblock misses, and no extra replacements occur. words holds
// the block's mapping words indexed by block offset, at most
// 1<<LogSBF of them; pte.Invalid marks an unmapped page. The slice is
// only read, so a caller may pass its page-table words in place.
func (t *TLB) InsertBlockWords(vpbn addr.VPBN, words []pte.Word) {
	if t.cfg.Kind != CompleteSubblock {
		panic("tlb: InsertBlockWords on non-complete-subblock TLB")
	}
	t.tick++
	t.forget()
	s := t.idx.lookupBlock(vpbn)
	if s < 0 {
		var blk *entry
		s, blk = t.claim()
		blk.format, blk.vpbn = fCSB, vpbn
		blk.ppns = t.csbFrames(blk.ppns)
		t.install(s)
	}
	blk := &t.entries[s]
	blk.lru = t.tick
	t.lruTouch(s)
	first := addr.BlockJoin(vpbn, 0, t.cfg.LogSBF)
	ppns := blk.ppns[:len(words)]
	for boff, w := range words {
		if w == pte.Invalid {
			continue
		}
		blk.mask |= 1 << boff
		ppns[boff] = w.Frame(first+addr.VPN(boff), uint64(boff))
	}
}

// InsertBlock is the entry adapter over InsertBlockWords: it packs the
// entries of block vpbn by block offset, the last entry for an offset
// winning, and skips entries outside the block.
func (t *TLB) InsertBlock(vpbn addr.VPBN, entries []pte.Entry) {
	var words [pte.MaxBlockWords]pte.Word
	t.InsertBlockWords(vpbn, pte.PackBlock(&words, vpbn, t.cfg.LogSBF, entries))
}

// csbFrames returns the per-subblock frame array for a new
// complete-subblock entry in a claimed slot whose previous array is
// ppns: that array, cleared, when it has one. Block misses replace
// victims millions of times per replay, and nothing outside the TLB
// holds a slot's frames.
func (t *TLB) csbFrames(ppns []addr.PPN) []addr.PPN {
	if len(ppns) != 1<<t.cfg.LogSBF {
		return make([]addr.PPN, 1<<t.cfg.LogSBF)
	}
	clear(ppns)
	return ppns
}

func (t *TLB) insertSingle(vpn addr.VPN, ppn addr.PPN) {
	v, e := t.claim()
	e.format, e.vpn, e.ppn = fSingle, vpn, ppn
	t.install(v)
}

func (t *TLB) insertSpan(base addr.VPN, size addr.Size, basePPN addr.PPN) {
	v, e := t.claim()
	e.format, e.vpn, e.size, e.ppn = fSpan, base, size, basePPN
	t.install(v)
}

func (t *TLB) insertPSB(vpbn addr.VPBN, mask uint16, basePPN addr.PPN) {
	v, e := t.claim()
	e.format, e.vpbn, e.mask, e.ppn = fPSB, vpbn, mask, basePPN
	t.install(v)
}

// Invalidate drops every entry covering vpn — the single-page
// shootdown. Block entries are dropped whole (conservative: a
// shootdown of one page kills the block's tag), matching what an OS
// must do when it cannot prove the rest of the block unchanged. Each
// dropped slot joins the sorted freed list, so victim refills it before
// evicting any valid entry.
func (t *TLB) Invalidate(vpn addr.VPN) {
	for {
		s := t.idx.lookup(vpn, t.entries)
		if s < 0 {
			break
		}
		t.entries[s].valid = false
		t.idx.remove(&t.entries[s], s, t.entries)
		t.lruUnlink(s)
		t.freeSlot(s)
	}
	t.forget()
}

// freeSlot records an invalidated slot in ascending index order.
func (t *TLB) freeSlot(s int32) {
	i := len(t.freed)
	t.freed = append(t.freed, s)
	for i > 0 && t.freed[i-1] > s {
		t.freed[i] = t.freed[i-1]
		i--
	}
	t.freed[i] = s
}

// Flush invalidates every entry (context switch without ASIDs).
func (t *TLB) Flush() {
	for i := range t.entries {
		t.entries[i].valid = false
	}
	t.idx.clear()
	t.lruHead, t.lruTail = -1, -1
	t.free = 0
	t.freed = t.freed[:0]
	t.forget()
}

// Stats returns the traffic counters.
func (t *TLB) Stats() Stats { return t.stats }

// ResetStats clears the traffic counters, keeping TLB contents.
func (t *TLB) ResetStats() { t.stats = Stats{} }

var (
	_ mmu.Level       = (*TLB)(nil)
	_ mmu.Invalidator = (*TLB)(nil)
)

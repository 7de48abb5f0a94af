// Package linear implements the multi-level linear page table of §2: a
// conceptual array of PTEs indexed by virtual page number, resident in
// virtual memory, populated a 4KB page at a time. A tree of directory
// pages maps the page-table pages themselves; for 64-bit addresses the
// minimum tree has six levels (Table 2: level i covers 2^(9i) base pages).
//
// The TLB miss handler accesses one leaf PTE per miss — a single cache
// line — but the access uses a virtual address, so it can take a nested
// TLB miss on the mapping of the page-table page. Following §6.1, the
// simulator reserves eight TLB entries for those mappings; this package
// exposes the leaf-page identity and the upper-level walk cost so the
// simulator can model the nested misses and the reserved entries'
// opportunity cost.
package linear

import (
	"fmt"
	"sync"

	"clusterpt/internal/addr"
	"clusterpt/internal/memcost"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/ptalloc"
	"clusterpt/internal/pte"
)

// Geometry constants: 4KB pages of 8-byte PTEs give 512 entries per page,
// nine index bits per level.
const (
	entriesPerPage = addr.BasePageSize / pte.WordBytes
	levelBits      = 9
	pageBytes      = addr.BasePageSize

	// LeafSpanBits is log2 of the base pages one page-table page maps
	// (LeafPageIndex's shift) — the natural span of a page-walk-cache
	// entry over the table's upper walk.
	LeafSpanBits = levelBits
)

// UpperLookup selects how the mappings to the page-table pages themselves
// are translated on a nested miss.
type UpperLookup int

// UpperLookup modes.
const (
	// TreeWalk walks the directory tree top-down: one cache line per
	// upper level (nlevels−1 lines for a full walk).
	TreeWalk UpperLookup = iota
	// HashedUpper stores the leaf-page mappings in a hashed page table
	// (§2, §7: "it is possible to efficiently store the data structure
	// for the mappings to the linear page tables in a hashed page
	// table"): one cache line per nested miss.
	HashedUpper
)

// Config parameterizes a linear page table.
type Config struct {
	// VABits is the virtual address width; 64 (six-level tree) by
	// default. 32 gives the three-level OSF/1-style tree.
	VABits uint
	// OneLevel selects the idealized Figure 9 "1-level" accounting:
	// intermediate nodes are stored in a data structure that takes zero
	// space.
	OneLevel bool
	// Upper selects nested-miss translation.
	Upper UpperLookup
	// LogSBF fixes the block geometry assumed when interpreting
	// replicated partial-subblock words; default 4 (64KB blocks).
	LogSBF uint
	// CostModel sets cache-line geometry; zero means 256-byte lines.
	CostModel memcost.Model
}

func (c *Config) fill() error {
	if c.VABits == 0 {
		c.VABits = 64
	}
	if c.VABits < addr.BasePageShift+levelBits || c.VABits > 64 {
		return fmt.Errorf("linear: VABits %d out of range", c.VABits)
	}
	if c.LogSBF == 0 {
		c.LogSBF = 4
	}
	if c.LogSBF > 4 {
		return fmt.Errorf("linear: LogSBF %d too wide for psb words", c.LogSBF)
	}
	if c.CostModel.LineSize == 0 {
		c.CostModel = memcost.NewModel(0)
	}
	return nil
}

// Levels returns the minimum tree depth for the address width: leaf pages
// plus enough directory levels to cover all VPN bits.
func Levels(vaBits uint) int {
	vpnBits := vaBits - addr.BasePageShift
	n := int((vpnBits + levelBits - 1) / levelBits)
	if n < 1 {
		n = 1
	}
	return n
}

// leafPage is one 4KB page of the PTE array, carved from the table's
// arena so its storage is measured rather than left to the Go heap.
type leafPage struct {
	words [entriesPerPage]pte.Word
	count int // valid words
	h     ptalloc.Handle
}

// Table is a multi-level linear page table.
type Table struct {
	cfg    Config
	levels int

	mu    sync.RWMutex
	leaf  map[uint64]*leafPage // leaf page index (vpn>>9) → page
	upper []map[uint64]int     // level i≥2: page index → child count
	pages *ptalloc.Arena[leafPage]
	stats pagetable.Counters
}

// New creates a linear page table.
func New(cfg Config) (*Table, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	levels := Levels(cfg.VABits)
	t := &Table{
		cfg:    cfg,
		levels: levels,
		leaf:   make(map[uint64]*leafPage),
		upper:  make([]map[uint64]int, levels-1),
		pages:  ptalloc.NewArena[leafPage](),
	}
	for i := range t.upper {
		t.upper[i] = make(map[uint64]int)
	}
	return t, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config) *Table {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Name implements pagetable.PageTable.
func (t *Table) Name() string {
	if t.cfg.OneLevel {
		return "linear-1level"
	}
	return fmt.Sprintf("linear-%dlevel", t.levels)
}

// NumLevels returns the tree depth.
func (t *Table) NumLevels() int { return t.levels }

// LeafPageIndex returns the identity of the page-table page holding the
// PTE for vpn. The simulator uses it as the tag for the reserved TLB
// entries that map the page table itself.
func LeafPageIndex(vpn addr.VPN) uint64 { return uint64(vpn) >> levelBits }

// upperIndex returns the page index at directory level lvl (2-based) for
// vpn.
func upperIndex(vpn addr.VPN, lvl int) uint64 {
	return uint64(vpn) >> (levelBits * uint(lvl))
}

// Lookup implements pagetable.PageTable: one leaf-PTE access, one cache
// line. The nested-miss cost is not charged here — the simulator adds
// UpperWalkCost when the reserved TLB misses on the page-table page.
func (t *Table) Lookup(va addr.V) (pte.Entry, pagetable.WalkCost, bool) {
	vpn := addr.VPNOf(va)
	t.mu.RLock()
	e, cost, ok := t.lookupLocked(vpn)
	t.mu.RUnlock()
	t.stats.NoteLookup(ok)
	return e, cost, ok
}

func (t *Table) lookupLocked(vpn addr.VPN) (pte.Entry, pagetable.WalkCost, bool) {
	cost := pagetable.WalkCost{Probes: 1, Nodes: 1}
	var meter memcost.Meter
	off := int(uint64(vpn)&(entriesPerPage-1)) * pte.WordBytes
	meter.Touch(t.cfg.CostModel, [2]int{off, pte.WordBytes})
	cost.Lines = meter.Lines()
	pg, ok := t.leaf[LeafPageIndex(vpn)]
	if !ok {
		return pte.Entry{}, cost, false
	}
	w := pg.words[uint64(vpn)&(entriesPerPage-1)]
	if !w.Valid() {
		return pte.Entry{}, cost, false
	}
	boff := uint64(vpn) & (1<<t.cfg.LogSBF - 1)
	if w.Kind() == pte.KindPartial && !w.ValidAt(boff) {
		return pte.Entry{}, cost, false
	}
	return pte.EntryFromWord(w, vpn, boff), cost, true
}

// UpperWalkCost returns the cost of translating the page-table page
// address on a nested TLB miss: a top-down directory walk (one line per
// upper level) or a single hashed probe, per the configured mode.
func (t *Table) UpperWalkCost(vpn addr.VPN) pagetable.WalkCost {
	if t.cfg.Upper == HashedUpper {
		return pagetable.WalkCost{Lines: 1, Nodes: 1, Probes: 1, NestedMiss: true}
	}
	return pagetable.WalkCost{
		Lines:      t.levels - 1,
		Nodes:      t.levels - 1,
		Probes:     1,
		NestedMiss: true,
	}
}

// ensureLeaf returns the leaf page for vpn, allocating it and bumping
// directory refcounts as needed. Caller holds the write lock.
func (t *Table) ensureLeaf(vpn addr.VPN) *leafPage {
	idx := LeafPageIndex(vpn)
	pg, ok := t.leaf[idx]
	if ok {
		return pg
	}
	h, pg := t.pages.Alloc()
	pg.h = h
	t.leaf[idx] = pg
	for lvl := 2; lvl <= t.levels; lvl++ {
		t.upper[lvl-2][upperIndex(vpn, lvl)]++
	}
	return pg
}

// releaseLeaf frees an empty leaf page and any directory pages left
// childless. Caller holds the write lock.
func (t *Table) releaseLeaf(vpn addr.VPN) {
	idx := LeafPageIndex(vpn)
	if pg, ok := t.leaf[idx]; ok {
		t.pages.Free(pg.h)
	}
	delete(t.leaf, idx)
	for lvl := 2; lvl <= t.levels; lvl++ {
		ui := upperIndex(vpn, lvl)
		m := t.upper[lvl-2]
		if m[ui]--; m[ui] <= 0 {
			delete(m, ui)
		}
	}
}

// setWord installs a word at vpn's slot, failing if the slot is occupied.
// Caller holds the write lock.
func (t *Table) setWord(vpn addr.VPN, w pte.Word) error {
	pg := t.ensureLeaf(vpn)
	slot := uint64(vpn) & (entriesPerPage - 1)
	if pg.words[slot].Valid() {
		if pg.count == 0 {
			// Freshly allocated page cannot have valid words; defensive.
			panic("linear: corrupt leaf page")
		}
		return pagetable.ErrAlreadyMapped
	}
	pg.words[slot] = w
	pg.count++
	return nil
}

// Map implements pagetable.PageTable.
func (t *Table) Map(vpn addr.VPN, ppn addr.PPN, attr pte.Attr) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.setWord(vpn, pte.MakeBase(ppn, attr)); err != nil {
		t.cleanupIfEmpty(vpn)
		return err
	}
	t.stats.NoteInsert()
	return nil
}

func (t *Table) cleanupIfEmpty(vpn addr.VPN) {
	if pg, ok := t.leaf[LeafPageIndex(vpn)]; ok && pg.count == 0 {
		t.releaseLeaf(vpn)
	}
}

// Unmap implements pagetable.PageTable.
func (t *Table) Unmap(vpn addr.VPN) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	pg, ok := t.leaf[LeafPageIndex(vpn)]
	slot := uint64(vpn) & (entriesPerPage - 1)
	if !ok || !pg.words[slot].Valid() {
		return pagetable.ErrNotMapped
	}
	w := pg.words[slot]
	if w.Kind() != pte.KindBase {
		// Demote the replicas to per-page base words, then remove just the
		// target page — same observable semantics as the clustered table's
		// in-place demotion. UnmapReplicated remains the cheap whole-object
		// removal.
		if err := t.demoteReplicasLocked(vpn, w); err != nil {
			return err
		}
	}
	pg.words[slot] = pte.Invalid
	pg.count--
	if pg.count == 0 {
		t.releaseLeaf(vpn)
	}
	t.stats.NoteRemove()
	return nil
}

// ProtectRange implements pagetable.PageTable: direct array indexing, no
// hashing, one touched word per page.
func (t *Table) ProtectRange(r addr.Range, set, clear pte.Attr) (pagetable.WalkCost, error) {
	var cost pagetable.WalkCost
	t.mu.Lock()
	defer t.mu.Unlock()
	r.Pages(func(vpn addr.VPN) bool {
		cost.Probes++
		pg, ok := t.leaf[LeafPageIndex(vpn)]
		if !ok {
			return true
		}
		cost.Nodes++
		slot := uint64(vpn) & (entriesPerPage - 1)
		if w := pg.words[slot]; w.Valid() {
			pg.words[slot] = w.WithAttr(w.Attr()&^clear | set)
		}
		return true
	})
	return cost, nil
}

// Size implements pagetable.PageTable. Table 2: Σ 4KB × Nactive(2^(9i))
// over the tree levels; the "1-level" idealization charges only the leaf
// level.
func (t *Table) Size() pagetable.Size {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var mappings uint64
	for _, pg := range t.leaf {
		mappings += uint64(pg.count)
	}
	sz := pagetable.Size{
		PTEBytes: uint64(len(t.leaf)) * pageBytes,
		Nodes:    uint64(len(t.leaf)),
		Mappings: mappings,
	}
	if !t.cfg.OneLevel {
		for _, m := range t.upper {
			sz.PTEBytes += uint64(len(m)) * pageBytes
			sz.Nodes += uint64(len(m))
		}
	}
	return sz
}

// LevelPages reports the populated page count at each level (index 0 =
// leaf), for the Table 2 cross-check.
func (t *Table) LevelPages() []int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]int, t.levels)
	out[0] = len(t.leaf)
	for i, m := range t.upper {
		out[i+1] = len(m)
	}
	return out
}

// Stats implements pagetable.PageTable.
func (t *Table) Stats() pagetable.Stats {
	return t.stats.Snapshot()
}

// MemStats implements pagetable.MemReporter: one arena object per
// populated leaf page. Directory levels are refcount maps (their pages
// hold no PTEs here), so only the leaf level is measured; the analytical
// Size() additionally charges 4KB per directory page.
func (t *Table) MemStats() pagetable.MemStats {
	return pagetable.MemStats{Nodes: t.pages.Stats()}
}

// Reset implements pagetable.Resetter.
func (t *Table) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.leaf)
	for i := range t.upper {
		clear(t.upper[i])
	}
	t.pages.Reset()
	t.stats.Reset()
}

var (
	_ pagetable.PageTable       = (*Table)(nil)
	_ pagetable.SuperpageMapper = (*Table)(nil)
	_ pagetable.PartialMapper   = (*Table)(nil)
	_ pagetable.BlockReader     = (*Table)(nil)
	_ pagetable.UpperWalker     = (*Table)(nil)
	_ pagetable.MemReporter     = (*Table)(nil)
	_ pagetable.Resetter        = (*Table)(nil)
)

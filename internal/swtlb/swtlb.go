// Package swtlb implements a software TLB (§2, §7): a memory-resident,
// set-associative cache of recently used translations sitting between the
// hardware TLB and a native page table — the structure UltraSPARC calls a
// TSB and PA-RISC an swTLB. Pre-allocating a fixed number of PTEs per
// bucket eliminates the hashed table's next pointers, so a hit costs a
// single memory access (one cache line); a miss adds the backing page
// table's full walk. §7 notes a software TLB also permits a larger
// clustered subblock factor than the cache line size would otherwise
// dictate; the Clustered mode implements that variant with one page block
// per entry.
//
// A Cache is a single-goroutine model and is not safe for concurrent
// use.
package swtlb

import (
	"fmt"

	"clusterpt/internal/addr"
	"clusterpt/internal/memcost"
	"clusterpt/internal/mmu"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
)

// Config parameterizes a software TLB.
type Config struct {
	// Entries is the total entry count, a power of two (default 4096).
	Entries int
	// Ways is the set associativity (default 1, direct-mapped).
	Ways int
	// Clustered makes each entry cache a whole page block (subblock
	// factor 1<<LogSBF) instead of one page.
	Clustered bool
	// LogSBF is the block geometry for Clustered mode; default 4.
	LogSBF uint
	// CostModel sets cache-line geometry; zero means 256-byte lines.
	CostModel memcost.Model
}

func (c *Config) fill() error {
	if c.Entries == 0 {
		c.Entries = 4096
	}
	if c.Ways == 0 {
		c.Ways = 1
	}
	if !addr.IsPow2(uint64(c.Entries)) {
		return fmt.Errorf("swtlb: entries %d not a power of two", c.Entries)
	}
	if c.Ways < 1 || c.Entries%c.Ways != 0 {
		return fmt.Errorf("swtlb: ways %d does not divide entries %d", c.Ways, c.Entries)
	}
	if c.LogSBF == 0 {
		c.LogSBF = 4
	}
	if c.LogSBF > 6 {
		return fmt.Errorf("swtlb: LogSBF %d too wide", c.LogSBF)
	}
	if c.CostModel.LineSize == 0 {
		c.CostModel = memcost.NewModel(0)
	}
	return nil
}

// entry is one software-TLB slot: a tag and, outside Clustered mode,
// the one cached mapping word (Clustered mode keeps each slot's block
// of words in Cache.blocks instead).
type entry struct {
	tag   uint64 // VPN, or VPBN in Clustered mode
	lru   uint64
	word  pte.Word
	valid bool
}

// Stats counts software-TLB traffic in the hierarchy-wide shape
// (mmu.Stats): the subblock and replacement fields stay zero here, but
// hits and misses line up column-for-column with every other level.
type Stats = mmu.Stats

// Cache is a software TLB in front of a backing page table. It
// implements pagetable.PageTable itself, so it can be dropped in front of
// any organization; write operations pass through and invalidate. A
// Cache built with NewLevel instead carries no backing table and serves
// as a pure mmu.Level (the L2 of a translation hierarchy): only the
// Level surface plus Probe and Invalidate are usable in that mode.
//
// A Cache is a single-goroutine model, like tlb.TLB and walkcache.PWC:
// every probe moves its replacement state, so it is not safe for
// concurrent use.
type Cache struct {
	cfg     Config
	backing pagetable.PageTable

	// slots holds the sets back to back, Ways slots per set; setMask
	// selects a set from a key.
	slots   []entry
	setMask uint64
	// blocks holds Clustered mode's page blocks, 1<<LogSBF words per
	// slot in slot order; nil otherwise.
	blocks []pte.Word
	tick   uint64
	stats  Stats
	// block is the Clustered fill's gather buffer, reused by every fill.
	block []pte.Entry
}

// New creates a software TLB over the backing table.
func New(cfg Config, backing pagetable.PageTable) (*Cache, error) {
	if backing == nil {
		return nil, fmt.Errorf("swtlb: nil backing table")
	}
	return newCache(cfg, backing)
}

// NewLevel creates a standalone software TLB with no backing table, for
// use as a lower caching level of an mmu.Hierarchy. Misses are the
// caller's to service (via Insert); the pagetable.PageTable surface is
// unusable in this mode.
func NewLevel(cfg Config) (*Cache, error) {
	return newCache(cfg, nil)
}

// MustNewLevel is NewLevel for known-good configurations; it panics on
// error.
func MustNewLevel(cfg Config) *Cache {
	c, err := NewLevel(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func newCache(cfg Config, backing pagetable.PageTable) (*Cache, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	c := &Cache{
		cfg:     cfg,
		backing: backing,
		slots:   make([]entry, cfg.Entries),
		setMask: uint64(cfg.Entries/cfg.Ways - 1),
	}
	if cfg.Clustered {
		c.blocks = make([]pte.Word, cfg.Entries<<cfg.LogSBF)
	}
	return c, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config, backing pagetable.PageTable) *Cache {
	c, err := New(cfg, backing)
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements pagetable.PageTable and mmu.Level.
func (c *Cache) Name() string {
	base := "swtlb"
	if c.cfg.Clustered {
		base = "swtlb-clustered"
	}
	if c.backing == nil {
		return base
	}
	return base + "+" + c.backing.Name()
}

// entryBytes is the paper-accounting size of one slot: 8-byte tag plus
// the mapping word(s); no next pointer.
func (c *Cache) entryBytes() int {
	if c.cfg.Clustered {
		return 8 + (1<<c.cfg.LogSBF)*pte.WordBytes
	}
	return 8 + pte.WordBytes
}

func (c *Cache) key(vpn addr.VPN) uint64 {
	if c.cfg.Clustered {
		b, _ := addr.BlockSplit(vpn, c.cfg.LogSBF)
		return uint64(b)
	}
	return uint64(vpn)
}

// setStart is the index in c.slots of key's set's first way.
func (c *Cache) setStart(key uint64) int { return int(key&c.setMask) * c.cfg.Ways }

// blockOf returns slot i's page block (Clustered mode).
func (c *Cache) blockOf(i int) []pte.Word {
	n := 1 << c.cfg.LogSBF
	return c.blocks[i*n : (i+1)*n]
}

// lookup is the probe every surface shares: it advances the clock,
// counts the access, and on a hit stamps the slot's LRU and returns
// its index in c.slots; a miss returns -1. A Clustered slot whose block
// lacks the page is a miss.
func (c *Cache) lookup(vpn addr.VPN) int {
	key := c.key(vpn)
	c.stats.Accesses++
	c.tick++
	first := c.setStart(key)
	for i := first; i < first+c.cfg.Ways; i++ {
		ent := &c.slots[i]
		if !ent.valid || ent.tag != key {
			continue
		}
		if c.cfg.Clustered {
			_, boff := addr.BlockSplit(vpn, c.cfg.LogSBF)
			if !c.blockOf(i)[boff].Valid() {
				break // block cached but page absent: treat as miss
			}
		}
		ent.lru = c.tick
		c.stats.Hits++
		return i
	}
	c.stats.Misses++
	return -1
}

// Probe looks up va in the cache alone: the set probe with its cost,
// no backing walk, no fill. It is the first half of Lookup; a hit costs
// one cache line (§7: "reduce the TLB miss penalty to a single memory
// access on a hit"), a miss pays the failed probe over the set's tags.
func (c *Cache) Probe(va addr.V) (pte.Entry, pagetable.WalkCost, bool) {
	vpn := addr.VPNOf(va)
	i := c.lookup(vpn)
	var meter memcost.Meter
	cost := pagetable.WalkCost{Probes: 1, Nodes: 1}
	if i < 0 {
		// Miss: the failed probe touched the set's tags.
		meter.Touch(c.cfg.CostModel, [2]int{0, c.entryBytes() * c.cfg.Ways})
		cost.Lines = meter.Lines()
		return pte.Entry{}, cost, false
	}
	if c.cfg.Clustered {
		_, boff := addr.BlockSplit(vpn, c.cfg.LogSBF)
		meter.Touch(c.cfg.CostModel,
			[2]int{0, 8}, [2]int{8 + int(boff)*pte.WordBytes, pte.WordBytes})
		cost.Lines = meter.Lines()
		return pte.EntryFromWord(c.blockOf(i)[boff], vpn, boff), cost, true
	}
	meter.Touch(c.cfg.CostModel, [2]int{0, c.entryBytes()})
	cost.Lines = meter.Lines()
	return pte.EntryFromWord(c.slots[i].word, vpn, 0), cost, true
}

// Lookup implements pagetable.PageTable: the Probe, plus on a miss the
// backing page table's full walk and the fill.
func (c *Cache) Lookup(va addr.V) (pte.Entry, pagetable.WalkCost, bool) {
	e, probeCost, hit := c.Probe(va)
	if hit {
		return e, probeCost, true
	}
	e, walk, ok := c.backing.Lookup(va)
	probeCost.Add(walk)
	if !ok {
		return pte.Entry{}, probeCost, false
	}
	c.Insert(e)
	return e, probeCost, true
}

// Access implements mmu.Level: a tag-only probe. It moves the clock,
// the LRU and the counters exactly as Probe does, but neither meters
// lines nor decodes the cached entry; the hierarchy charges its own
// probe cost.
func (c *Cache) Access(va addr.V) mmu.Result {
	return mmu.Result{Hit: c.lookup(addr.VPNOf(va)) >= 0}
}

// InsertWord is the fill core, the word fill of mmu.WordInserter: it
// caches the translation mapping word w gives vpn. A software TLB caches
// translations, not page-table structure, so whatever w's kind the slot
// holds vpn's own base word: w.Frame(vpn, boff), with boff vpn's block
// offset in the cache's LogSBF geometry, and w's attributes.
func (c *Cache) InsertWord(vpn addr.VPN, w pte.Word) {
	_, boff := addr.BlockSplit(vpn, c.cfg.LogSBF)
	c.fill(vpn, pte.MakeBase(w.Frame(vpn, boff), w.Attr()))
}

// Insert implements mmu.Level, filling the slot for a translation the
// caller's walk produced: an adapter over the word fill. The entry packs
// as the base word of its own frame, which the fill caches unchanged, so
// the adapter is exact on every entry whatever block geometry resolved
// it.
func (c *Cache) Insert(e pte.Entry) { c.fill(e.VPN, pte.MakeBase(e.PPN, e.Attr)) }

// Flush implements mmu.Level (the shootdown alias of InvalidateAll).
func (c *Cache) Flush() { c.InvalidateAll() }

// fill installs vpn's base word after a miss. The victim is the set's
// first invalid slot, else its least recently used one.
func (c *Cache) fill(vpn addr.VPN, word pte.Word) {
	key := c.key(vpn)
	first := c.setStart(key)
	set := c.slots[first : first+c.cfg.Ways]
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	ent := &set[victim]
	ent.valid = true
	ent.tag = key
	ent.lru = c.tick
	if !c.cfg.Clustered {
		ent.word = word
		return
	}
	vpbn, boff := addr.BlockSplit(vpn, c.cfg.LogSBF)
	words := c.blockOf(first + victim)
	clear(words)
	words[boff] = word
	// Gather the rest of the block when the backing table can do it
	// cheaply (clustered/linear adjacency), each page as the base word
	// of its own frame.
	if br, okBR := c.backing.(pagetable.BlockReader); okBR {
		var okB bool
		if c.block, _, okB = br.AppendBlock(c.block[:0], vpbn, c.cfg.LogSBF); okB {
			for _, be := range c.block {
				_, bo := addr.BlockSplit(be.VPN, c.cfg.LogSBF)
				words[bo] = pte.MakeBase(be.PPN, be.Attr)
			}
		}
	}
}

// Invalidate drops any cached translation for vpn.
func (c *Cache) Invalidate(vpn addr.VPN) {
	key := c.key(vpn)
	first := c.setStart(key)
	for i := first; i < first+c.cfg.Ways; i++ {
		ent := &c.slots[i]
		if !ent.valid || ent.tag != key {
			continue
		}
		if c.cfg.Clustered {
			_, boff := addr.BlockSplit(vpn, c.cfg.LogSBF)
			c.blockOf(i)[boff] = pte.Invalid
		} else {
			ent.valid = false
		}
	}
}

// InvalidateAll empties the cache.
func (c *Cache) InvalidateAll() {
	for i := range c.slots {
		c.slots[i].valid = false
	}
}

// Map implements pagetable.PageTable (write-through).
func (c *Cache) Map(vpn addr.VPN, ppn addr.PPN, attr pte.Attr) error {
	if err := c.backing.Map(vpn, ppn, attr); err != nil {
		return err
	}
	c.Invalidate(vpn)
	return nil
}

// Unmap implements pagetable.PageTable (write-through with invalidate).
func (c *Cache) Unmap(vpn addr.VPN) error {
	if err := c.backing.Unmap(vpn); err != nil {
		return err
	}
	c.Invalidate(vpn)
	return nil
}

// ProtectRange implements pagetable.PageTable (write-through; the range
// is invalidated page by page).
func (c *Cache) ProtectRange(r addr.Range, set, clear pte.Attr) (pagetable.WalkCost, error) {
	cost, err := c.backing.ProtectRange(r, set, clear)
	if err != nil {
		return cost, err
	}
	r.Pages(func(vpn addr.VPN) bool {
		c.Invalidate(vpn)
		return true
	})
	return cost, nil
}

// Size implements pagetable.PageTable: the software TLB's fixed array
// plus the backing table.
func (c *Cache) Size() pagetable.Size {
	sz := c.backing.Size()
	sz.FixedBytes += uint64(c.cfg.Entries) * uint64(c.entryBytes())
	return sz
}

// Stats implements pagetable.PageTable, reporting the backing table's
// operation counts; use CacheStats for hit/miss traffic.
func (c *Cache) Stats() pagetable.Stats { return c.backing.Stats() }

// CacheStats reports software-TLB traffic (alias of the Level-surface
// Stats, kept for the PageTable-mode callers where Stats means the
// backing table's operation counts).
func (c *Cache) CacheStats() Stats { return c.stats }

// LevelStats reports software-TLB traffic under the mmu.Level surface.
// The method cannot be named Stats — that slot is taken by the
// PageTable contract — so the Level adapter below rebinds it.
func (c *Cache) LevelStats() Stats { return c.CacheStats() }

// ResetStats clears the traffic counters, keeping contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Level adapts a Cache to mmu.Level. The only indirection is Stats:
// Cache.Stats is claimed by pagetable.PageTable (backing-table operation
// counts), so the adapter rebinds the Level's Stats to CacheStats.
type Level struct{ *Cache }

// AsLevel wraps the cache for use in an mmu.Hierarchy.
func (c *Cache) AsLevel() Level { return Level{c} }

// Stats implements mmu.Level with the cache's own traffic counters.
func (l Level) Stats() Stats { return l.Cache.CacheStats() }

var (
	_ pagetable.PageTable = (*Cache)(nil)
	_ mmu.Level           = Level{}
	_ mmu.Invalidator     = Level{}
	_ mmu.WordInserter    = Level{}
)

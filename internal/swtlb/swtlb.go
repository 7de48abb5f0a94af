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
package swtlb

import (
	"fmt"
	"sync"

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

// entry is one software-TLB slot: a tag and either one mapping word or a
// block of them (Clustered mode).
type entry struct {
	valid bool
	tag   uint64 // VPN, or VPBN in Clustered mode
	words []pte.Word
	lru   uint64
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
type Cache struct {
	cfg     Config
	backing pagetable.PageTable

	mu    sync.Mutex
	sets  [][]entry //ptlint:guardedby mu
	tick  uint64    //ptlint:guardedby mu
	stats Stats     //ptlint:guardedby mu
	// block is the Clustered fill's gather buffer, reused by every fill.
	block []pte.Entry //ptlint:guardedby mu
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
	nsets := cfg.Entries / cfg.Ways
	sets := make([][]entry, nsets)
	for i := range sets {
		sets[i] = make([]entry, cfg.Ways)
	}
	return &Cache{cfg: cfg, backing: backing, sets: sets}, nil
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

func (c *Cache) setFor(key uint64) []entry {
	return c.sets[key&uint64(len(c.sets)-1)]
}

// Probe looks up va in the cache alone: the set probe with its cost,
// no backing walk, no fill. It is the Level-mode lookup path and the
// first half of Lookup; a hit costs one cache line (§7: "reduce the TLB
// miss penalty to a single memory access on a hit"), a miss pays the
// failed probe over the set's tags.
func (c *Cache) Probe(va addr.V) (pte.Entry, pagetable.WalkCost, bool) {
	return c.probe(va, true)
}

// probe is Probe; metered=false skips the line accounting for callers
// that need only the outcome.
func (c *Cache) probe(va addr.V, metered bool) (pte.Entry, pagetable.WalkCost, bool) {
	vpn := addr.VPNOf(va)
	key := c.key(vpn)

	c.mu.Lock()
	c.stats.Accesses++
	set := c.setFor(key)
	c.tick++
	var meter memcost.Meter
	probeCost := pagetable.WalkCost{Probes: 1, Nodes: 1}
	for i := range set {
		ent := &set[i]
		if !ent.valid || ent.tag != key {
			continue
		}
		if c.cfg.Clustered {
			_, boff := addr.BlockSplit(vpn, c.cfg.LogSBF)
			w := ent.words[boff]
			if !w.Valid() {
				break // block cached but page absent: treat as miss
			}
			if metered {
				meter.Touch(c.cfg.CostModel,
					[2]int{0, 8}, [2]int{8 + int(boff)*pte.WordBytes, pte.WordBytes})
				probeCost.Lines = meter.Lines()
			}
			ent.lru = c.tick
			c.stats.Hits++
			c.mu.Unlock()
			return pte.EntryFromWord(w, vpn, boff), probeCost, true
		}
		if metered {
			meter.Touch(c.cfg.CostModel, [2]int{0, c.entryBytes()})
			probeCost.Lines = meter.Lines()
		}
		ent.lru = c.tick
		c.stats.Hits++
		c.mu.Unlock()
		return pte.EntryFromWord(ent.words[0], vpn, 0), probeCost, true
	}
	// Miss: the failed probe touched the set's tags.
	if metered {
		meter.Touch(c.cfg.CostModel, [2]int{0, c.entryBytes() * len(set)})
		probeCost.Lines = meter.Lines()
	}
	c.stats.Misses++
	c.mu.Unlock()
	return pte.Entry{}, probeCost, false
}

// Lookup implements pagetable.PageTable: the Probe, plus on a miss the
// backing page table's full walk and the fill.
func (c *Cache) Lookup(va addr.V) (pte.Entry, pagetable.WalkCost, bool) {
	e, probeCost, hit := c.Probe(va)
	if hit {
		return e, probeCost, true
	}
	vpn := addr.VPNOf(va)
	e, walk, ok := c.backing.Lookup(va)
	probeCost.Add(walk)
	if !ok {
		return pte.Entry{}, probeCost, false
	}
	c.fill(vpn, c.key(vpn), e)
	return e, probeCost, true
}

// Access implements mmu.Level: the probe alone, hit/miss outcome.
func (c *Cache) Access(va addr.V) mmu.Result {
	_, _, hit := c.probe(va, false)
	return mmu.Result{Hit: hit}
}

// Insert implements mmu.Level, filling the slot for a translation the
// caller's walk produced.
func (c *Cache) Insert(e pte.Entry) {
	c.fill(e.VPN, c.key(e.VPN), e)
}

// Flush implements mmu.Level (the shootdown alias of InvalidateAll).
func (c *Cache) Flush() { c.InvalidateAll() }

// fill installs a translation after a miss.
func (c *Cache) fill(vpn addr.VPN, key uint64, e pte.Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	set := c.setFor(key)
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
	if c.cfg.Clustered {
		_, boff := addr.BlockSplit(vpn, c.cfg.LogSBF)
		ent.words = reuseWords(ent.words, 1<<c.cfg.LogSBF)
		ent.words[boff] = wordFromEntry(e)
		// Gather the rest of the block when the backing table can do it
		// cheaply (clustered/linear adjacency).
		if br, okBR := c.backing.(pagetable.BlockReader); okBR {
			vpbn, _ := addr.BlockSplit(vpn, c.cfg.LogSBF)
			var okB bool
			if c.block, _, okB = br.AppendBlock(c.block[:0], vpbn, c.cfg.LogSBF); okB {
				for _, be := range c.block {
					_, bo := addr.BlockSplit(be.VPN, c.cfg.LogSBF)
					ent.words[bo] = wordFromEntry(be)
				}
			}
		}
		return
	}
	ent.words = append(reuseWords(ent.words, 0), wordFromEntry(e))
}

// reuseWords returns n cleared words, reusing the victim slot's backing
// array when it is large enough: fills replace victims millions of
// times per replay, and nothing outside the locked slot retains its
// words.
func reuseWords(words []pte.Word, n int) []pte.Word {
	if cap(words) < n {
		return make([]pte.Word, n)
	}
	words = words[:n]
	clear(words)
	return words
}

// wordFromEntry reconstructs a base mapping word for caching. Superpage
// and psb entries are cached as base words for the specific page — a
// software TLB caches translations, not page-table structure.
func wordFromEntry(e pte.Entry) pte.Word {
	return pte.MakeBase(e.PPN, e.Attr)
}

// Invalidate drops any cached translation for vpn.
func (c *Cache) Invalidate(vpn addr.VPN) {
	key := c.key(vpn)
	c.mu.Lock()
	defer c.mu.Unlock()
	set := c.setFor(key)
	for i := range set {
		if set[i].valid && set[i].tag == key {
			if c.cfg.Clustered {
				_, boff := addr.BlockSplit(vpn, c.cfg.LogSBF)
				set[i].words[boff] = pte.Invalid
			} else {
				set[i].valid = false
			}
		}
	}
}

// InvalidateAll empties the cache.
func (c *Cache) InvalidateAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for s := range c.sets {
		for i := range c.sets[s] {
			c.sets[s][i].valid = false
		}
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
func (c *Cache) CacheStats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// LevelStats reports software-TLB traffic under the mmu.Level surface.
// The method cannot be named Stats — that slot is taken by the
// PageTable contract — so the Level adapter below rebinds it.
func (c *Cache) LevelStats() Stats { return c.CacheStats() }

// ResetStats clears the traffic counters, keeping contents.
func (c *Cache) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = Stats{}
}

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
)

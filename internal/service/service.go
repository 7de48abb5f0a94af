// Package service is the concurrent page-table service layer: it wraps
// any pagetable.PageTable organization behind one thread-safe surface
// tuned for mixed traffic from many goroutines, optionally replicated
// across the nodes of a modeled NUMA machine.
//
// The design splits the two paths the way an OS splits the TLB miss
// handler from the mapping system calls (§3.1 of the paper):
//
//   - Lookup takes a lock-free fast path through a fixed-size translation
//     cache of by-value seqlock slots — a software TLB in front of the
//     wrapped table. A hit costs one hash, a few atomic loads bracketed by
//     the slot's sequence counter, one tag compare and a mapping-word
//     decode; no lock, no shared-cache-line write, no allocation. A miss
//     walks the table under the covering stripe's read lock and publishes
//     the result before releasing it.
//   - Map, MapRange, Unmap, Protect and Demote run one write round per
//     page block on a striped readers-writer lock: lock the block's
//     stripe, mutate the table, invalidate the affected cache slots,
//     unlock. Because a translation's fill and its invalidation hash to
//     the same stripe, a fill can never resurrect an entry a concurrent
//     writer just killed — the coherence argument DESIGN.md §6 spells
//     out.
//
// A Service holds R replicas of one logical table; R=1 is the plain
// single-table service. Each replica owns its table, stripe locks,
// translation cache and optional hierarchy model, so a reader bound to
// one through a Node shares no mutable cache line with readers bound to
// other replicas (Mitosis' read locality). Every write round is a
// two-phase broadcast (numaPTE's replica-coherence cost):
//
//	phase 1  lock the block's stripe on EVERY replica, in ascending
//	         replica order (the single global order — two conflicting
//	         writers serialize instead of deadlocking), apply the
//	         mutation to each replica's table, and stamp the replica's
//	         sequence counter on success;
//	phase 2  invalidate the affected cache slots and local hierarchies
//	         on every replica, unlock, and charge the modeled shootdown
//	         for the remote replicas.
//
// Conflicting writes hold all copies of the stripe for their whole
// apply, so every replica observes them in the same order: replicas
// cannot diverge, and the sequence stamps are equal whenever the table
// is quiescent. The broadcast asserts this — a replica disagreeing with
// replica 0 on an operation's outcome panics rather than serving
// split-brain translations.
//
// The cache guarantees translation coherence: a cached entry always
// returns the PPN and attribute bits the wrapped table would return for
// that VPN. It does not guarantee format coherence — after a superpage is
// demoted page by page, a cached entry may still carry the old Kind/Size
// until evicted — matching real TLBs, which shoot down translations, not
// PTE formats.
package service

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"clusterpt/internal/addr"
	"clusterpt/internal/memcost"
	"clusterpt/internal/mmu"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
)

// Defaults chosen for serving-sized tables: 128 stripes keeps writer
// collision probability low at dozens of writer goroutines; 4096 cache
// slots matches the software-TLB sizing of §7.
const (
	DefaultStripes    = 128
	DefaultCacheSlots = 4096
)

// logBlock is the write-lock granularity in pages (log2): 16 pages, the
// paper's base-case subblock factor, so one stripe acquisition covers
// one clustered page block.
const (
	logBlock   = 4
	blockPages = 1 << logBlock
)

// Config parameterizes a Service; zero fields take defaults.
type Config struct {
	// Stripes is the per-replica write-lock stripe count, a power of two.
	Stripes int
	// CacheSlots is the per-replica lookup-cache size, a power of two.
	CacheSlots int
	// Replicas is the replication factor: replicas live on nodes
	// 0..Replicas-1. Default 1 (a single table).
	Replicas int
	// NUMA is the machine model. The zero value takes DefaultNUMA.
	NUMA memcost.NUMAModel
}

func (c *Config) fill() error {
	if c.Stripes == 0 {
		c.Stripes = DefaultStripes
	}
	if c.CacheSlots == 0 {
		c.CacheSlots = DefaultCacheSlots
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.NUMA == (memcost.NUMAModel{}) {
		c.NUMA = memcost.DefaultNUMA()
	}
	if !addr.IsPow2(uint64(c.Stripes)) {
		return fmt.Errorf("service: stripe count %d not a power of two", c.Stripes)
	}
	if !addr.IsPow2(uint64(c.CacheSlots)) {
		return fmt.Errorf("service: cache slot count %d not a power of two", c.CacheSlots)
	}
	if err := c.NUMA.Validate(); err != nil {
		return err
	}
	if c.Replicas < 1 || c.Replicas > c.NUMA.Nodes {
		return fmt.Errorf("service: %d replicas on a %d-node machine", c.Replicas, c.NUMA.Nodes)
	}
	return nil
}

// PageTable is the service surface: the base-page operation set of
// pagetable.PageTable re-shaped for concurrent callers — no walk costs
// (those are simulation instrumentation), plus the batched region map.
type PageTable interface {
	// Name identifies the wrapped organization.
	Name() string
	// Lookup resolves va. ok is false on a page fault.
	Lookup(va addr.V) (e pte.Entry, ok bool)
	// Map installs one base-page translation.
	Map(vpn addr.VPN, ppn addr.PPN, attr pte.Attr) error
	// MapRange installs n consecutive base pages vpn+i → ppn+i with one
	// lock acquisition per page block (a region-fault batch). It returns
	// the number of pages mapped; on error the earlier pages stay mapped.
	MapRange(vpn addr.VPN, ppn addr.PPN, n uint64, attr pte.Attr) (int, error)
	// Unmap removes the translation covering vpn.
	Unmap(vpn addr.VPN) error
	// Protect applies attribute bits to every mapping in r.
	Protect(r addr.Range, set, clear pte.Attr) error
	// Stats reports service-level operation counts.
	Stats() Stats
}

// Stats counts service operations. Hits+Fills+Faults is the total lookup
// count; Hits/(Hits+Fills+Faults) is the fast-path rate.
type Stats struct {
	// Hits are lookups served lock-free from the translation cache.
	Hits uint64
	// Fills are lookups that walked the wrapped table and cached the
	// result.
	Fills uint64
	// Faults are lookups with no covering mapping.
	Faults uint64
	// Maps and Unmaps count successful mutations; MapConflicts and
	// UnmapMisses count the ErrAlreadyMapped / ErrNotMapped outcomes that
	// are expected under racing writers.
	Maps, MapConflicts  uint64
	Unmaps, UnmapMisses uint64
	// Protects counts Protect calls.
	Protects uint64
	// Demotes counts successful block demotions (format-only PTE
	// rewrites; translations unchanged).
	Demotes uint64
}

// Lookups returns the total lookup count.
func (s Stats) Lookups() uint64 { return s.Hits + s.Fills + s.Faults }

// HitRate returns the fast-path fraction of lookups.
func (s Stats) HitRate() float64 {
	if n := s.Lookups(); n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// slot is one translation-cache entry, held by value so the cache holds
// no pointer for the collector to scan and a fill allocates nothing. It
// is a seqlock over two words: the tag — the cached VPN, with the
// partial-subblock offset e.PPN-e.BlockPPN (which the mapping word does
// not record) above the VPN's bits — and the packed mapping word. seq is
// odd while one writer — a filler or a dropper — owns the slot, and a
// reader accepts the tag and word only if seq was even and unchanged
// around its loads. A zero word (pte.Invalid) marks an empty slot; every
// cached translation's word is valid.
type slot struct {
	seq, tag, word atomic.Uint64
	_              [8]byte // half a cache line: no slot straddles two
}

// boffShift places the partial-subblock offset in the tag, above the
// widest VPN.
const boffShift = addr.VPNBits

// tagVPN is the VPN half of a slot tag.
func tagVPN(tag uint64) addr.VPN { return addr.VPN(tag & (1<<boffShift - 1)) }

// load returns the mapping word and partial-subblock offset the slot
// caches for vpn, for pte.EntryFromWord. A slot a writer owns, or one
// that changed under the loads, reads as a miss.
func (c *slot) load(vpn addr.VPN) (w pte.Word, boff uint64, ok bool) {
	s := c.seq.Load()
	tag := c.tag.Load()
	if s&1 != 0 || tagVPN(tag) != vpn {
		return pte.Invalid, 0, false
	}
	w = pte.Word(c.word.Load())
	return w, tag >> boffShift, w != pte.Invalid && c.seq.Load() == s
}

// fill caches e, the table's answer for e.VPN. Every organization builds
// its entries with pte.EntryFromWord, so e.Word and the offset give e
// back exactly. A filler that finds the slot owned, or loses the race to
// own it, skips the fill: the next miss walks again.
func (c *slot) fill(e pte.Entry) {
	tag := uint64(e.VPN)
	if e.Kind == pte.KindPartial {
		tag |= uint64(e.PPN-e.BlockPPN) << boffShift
	}
	w := e.Word()
	s := c.seq.Load()
	if s&1 != 0 || !c.seq.CompareAndSwap(s, s+1) {
		return
	}
	c.tag.Store(tag)
	c.word.Store(uint64(w))
	c.seq.Store(s + 2)
}

// drop empties the slot if it caches vpn. Unlike a filler it must not
// give up: a writer owning the slot fills or drops some other VPN and
// may leave vpn's entry in place, so drop waits it out. That writer only
// stores, so the wait is short, and it never waits on drop's caller.
func (c *slot) drop(vpn addr.VPN) {
	for {
		s := c.seq.Load()
		if s&1 != 0 {
			runtime.Gosched()
			continue
		}
		if tagVPN(c.tag.Load()) != vpn || c.word.Load() == uint64(pte.Invalid) {
			if c.seq.Load() == s {
				return
			}
			continue
		}
		if c.seq.CompareAndSwap(s, s+1) {
			c.word.Store(uint64(pte.Invalid))
			c.seq.Store(s + 2)
			return
		}
	}
}

// stripe pads each lock to its own cache line so writer stripes do not
// false-share.
type stripe struct {
	mu sync.RWMutex
	_  [40]byte
}

// replica is one node-local copy of the logical table.
type replica struct {
	// table's mapped state may only be read or mutated under the stripe
	// covering the touched page block — on writes the broadcast holds
	// that stripe on every replica at once. The pointer is write-once.
	table   pagetable.PageTable //ptlint:guardedby stripes[*].mu
	stripes []stripe
	cache   []slot
	// mmuh, when attached, is the modeled hardware translation hierarchy
	// in front of this replica. Atomic so AttachMMU is safe against
	// in-flight traffic; nil costs one atomic load per operation.
	mmuh atomic.Pointer[mmu.Shared]
	// seq stamps successful write rounds when R > 1. Writers bump it
	// under the stripe lock; quiescent readers compare stamps across
	// replicas to audit convergence.
	seq atomic.Uint64

	// The interface lookup counters take every reader's write, so a pad
	// keeps them off the cache line holding the fields above, which
	// every lookup reads.
	_                   [64]byte
	hits, fills, faults atomic.Uint64
}

// stripeIndex maps vpn's page block to one of stripes locks. All pages
// of one block — and therefore one clustered hash node — share a stripe.
func stripeIndex(vpn addr.VPN, stripes int) int {
	return int(pagetable.HashVPN(uint64(vpn)>>logBlock) & uint64(stripes-1))
}

// stripeFor returns the lock covering vpn's page block on this replica.
func (p *replica) stripeFor(vpn addr.VPN) *sync.RWMutex {
	return &p.stripes[stripeIndex(vpn, len(p.stripes))].mu
}

func (p *replica) slotFor(vpn addr.VPN) *slot {
	h := pagetable.HashVPN(uint64(vpn))
	return &p.cache[h&uint64(len(p.cache)-1)]
}

// hit resolves va from the translation cache, lock-free, returning the
// packed word and partial-subblock offset for the caller to decode into
// its own result. An attached hierarchy model is driven with the
// translation at zero walk cost: a hit touches no table memory. A racing
// invalidation may land after the slot load — the same staleness window
// a real TLB has between a fill and its shootdown.
func (p *replica) hit(va addr.V) (w pte.Word, boff uint64, ok bool) {
	vpn := addr.VPNOf(va)
	if w, boff, ok = p.slotFor(vpn).load(vpn); ok {
		if h := p.mmuh.Load(); h != nil {
			h.Translate(va, pte.EntryFromWord(w, vpn, boff), pagetable.WalkCost{})
		}
	}
	return w, boff, ok
}

// walk resolves a cache miss: it walks the table under the stripe's read
// lock and publishes the result, returning the walk's line count. The
// fill must complete inside the read-side critical section so a write
// round on the same stripe cannot order its invalidation between the
// walk and the publish; an attached hierarchy model is filled inside it
// for the same reason.
func (p *replica) walk(va addr.V) (e pte.Entry, lines int, ok bool) {
	vpn := addr.VPNOf(va)
	mu := p.stripeFor(vpn)
	mu.RLock()
	e, cost, ok := p.table.Lookup(va)
	if ok {
		p.slotFor(vpn).fill(e)
		if h := p.mmuh.Load(); h != nil {
			h.Translate(va, e, cost)
		}
	}
	mu.RUnlock()
	return e, cost.Lines, ok
}

// dropSlot kills the cache slot that may hold vpn. The caller holds
// vpn's stripe exclusively on this replica. The slot may cache a
// different VPN that merely shares the slot — clearing it costs a
// future refill, never correctness.
func (p *replica) dropSlot(vpn addr.VPN) {
	p.slotFor(vpn).drop(vpn)
}

// Service is the concurrent page table: R replicas of one logical table
// behind the PageTable surface. Interface reads go through replica 0;
// Node binds a goroutine to its home replica. Create with New or Wrap.
type Service struct {
	cfg      Config
	name     string
	replicas []*replica

	// Write counters sit a cache line away from the fields every
	// operation reads.
	_                             [64]byte
	maps, mapConflicts            atomic.Uint64
	unmaps, unmapMisses, protects atomic.Uint64
	demotes                       atomic.Uint64

	// Shootdown tally, atomically maintained so concurrent writers
	// merge without a lock (snapshot via Shootdowns).
	sdBroadcasts, sdIPIs, sdRemotePages, sdLines atomic.Uint64
}

// New builds cfg.Replicas replicas, one table per replica from build(i);
// zero config fields take defaults. The builder must return independent,
// empty tables of the same organization — replicas of one logical
// table, not shards.
func New(cfg Config, build func(i int) (pagetable.PageTable, error)) (*Service, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := &Service{cfg: cfg}
	for i := 0; i < cfg.Replicas; i++ {
		t, err := build(i)
		if err != nil {
			return nil, fmt.Errorf("service: replica %d: %w", i, err)
		}
		if t == nil {
			return nil, fmt.Errorf("service: replica %d: nil table", i)
		}
		s.name = t.Name()
		s.replicas = append(s.replicas, &replica{
			table:   t,
			stripes: make([]stripe, cfg.Stripes),
			cache:   make([]slot, cfg.CacheSlots),
		})
	}
	return s, nil
}

// Wrap builds a single-table Service over table.
func Wrap(table pagetable.PageTable, cfg Config) (*Service, error) {
	if cfg.Replicas > 1 {
		return nil, fmt.Errorf("service: Wrap serves one table, not %d replicas; use New", cfg.Replicas)
	}
	return New(cfg, func(int) (pagetable.PageTable, error) { return table, nil })
}

// MustWrap is Wrap for known-good configurations; it panics on error.
func MustWrap(table pagetable.PageTable, cfg Config) *Service {
	s, err := Wrap(table, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Name implements PageTable.
func (s *Service) Name() string { return s.name }

// Table returns replica 0's table, for size and walk-cost inspection.
// Callers must not mutate it directly while the service is in use —
// direct writes bypass cache invalidation and diverge the replicas.
//
//ptlint:allow guardedby write-once pointer escape hatch; the doc contract forbids concurrent mutation
func (s *Service) Table() pagetable.PageTable { return s.replicas[0].table }

// Nodes returns the modeled node count; Node accepts ids 0..Nodes-1.
func (s *Service) Nodes() int { return s.cfg.NUMA.Nodes }

// AttachMMU gives every replica its own modeled hardware translation
// hierarchy: build is called once per replica (nil build, or a nil
// return, leaves that replica bare). Once attached, every lookup a
// replica resolves drives its hierarchy through Translate (probe,
// walk-filter and fill under Shared's own mutex), every write round
// shoots the written pages down on each replica's hierarchy, and Reset
// flushes them all — so Stats()/LevelStats() report what the composed
// TLB stack would have done over the service's concurrent traffic.
// Attach before or during traffic; detach with AttachMMU(nil).
func (s *Service) AttachMMU(build func(i int) *mmu.Shared) {
	for i, rep := range s.replicas {
		var h *mmu.Shared
		if build != nil {
			h = build(i)
		}
		rep.mmuh.Store(h)
	}
}

// MMU returns replica i's attached hierarchy model, or nil.
func (s *Service) MMU(i int) *mmu.Shared { return s.replicas[i].mmuh.Load() }

// localTo reports whether node id's home replica is on its own node:
// replicas live on nodes 0..R-1, and nodes beyond them round-robin onto
// the existing replicas over the interconnect.
func (s *Service) localTo(node int) bool { return node < len(s.replicas) }

// charge folds one successful write round of pages base pages from
// origin into the shootdown tally: one IPI round per replica not hosted
// on origin's node.
func (s *Service) charge(origin, pages int) {
	remotes := len(s.replicas)
	if s.localTo(origin) {
		remotes--
	}
	if remotes <= 0 || pages <= 0 {
		return
	}
	s.sdBroadcasts.Add(1)
	s.sdIPIs.Add(uint64(remotes))
	s.sdRemotePages.Add(uint64(remotes) * uint64(pages))
	s.sdLines.Add(uint64(s.cfg.NUMA.BroadcastLines(remotes, pages)))
}

// Shootdowns returns a snapshot of the accumulated replica-coherence
// cost.
func (s *Service) Shootdowns() memcost.ShootdownTally {
	return memcost.ShootdownTally{
		Broadcasts:  s.sdBroadcasts.Load(),
		IPIs:        s.sdIPIs.Load(),
		RemotePages: s.sdRemotePages.Load(),
		Lines:       s.sdLines.Load(),
	}
}

// broadcast is the one write path: a two-phase round over the pages in
// vpns, which must all lie in the page block containing vpns[0] (one
// stripe covers them). apply runs against each replica's table and
// returns how many pages it changed; replicas disagreeing with replica
// 0 on the outcome panic — the protocol guarantees convergence, so
// disagreement means a caller mutated a replica table directly. On
// success the round is charged to origin as one IPI round per remote
// replica (block writes batch; that is the point of the two-phase
// shape).
func (s *Service) broadcast(origin int, vpns []addr.VPN, apply func(t pagetable.PageTable) (int, error)) (int, error) {
	si := stripeIndex(vpns[0], s.cfg.Stripes)
	for _, rep := range s.replicas {
		//ptlint:allow locksafety phase-2 loop below unlocks every stripe this loop locked; s.replicas is never empty (fill enforces Replicas >= 1)
		rep.stripes[si].mu.Lock()
	}
	pages := 0
	var firstErr error
	for i, rep := range s.replicas {
		p, err := apply(rep.table)
		if i == 0 {
			pages, firstErr = p, err
		} else if p != pages || (err == nil) != (firstErr == nil) {
			panic(fmt.Sprintf("service: replica %d diverged on vpn %#x: %d pages (%v), replica 0 saw %d (%v)",
				i, uint64(vpns[0]), p, err, pages, firstErr))
		}
		// The stamps only exist to compare replicas; a single table
		// skips the contended atomic on every write.
		if p > 0 && len(s.replicas) > 1 {
			rep.seq.Add(1)
		}
	}
	for _, rep := range s.replicas {
		for _, vpn := range vpns {
			rep.dropSlot(vpn)
		}
		if h := rep.mmuh.Load(); h != nil {
			h.InvalidateBatch(vpns)
		}
		rep.stripes[si].mu.Unlock()
	}
	if pages > 0 {
		s.charge(origin, pages)
	}
	return pages, firstErr
}

// blockVPNs appends pages lo..hi of block vpbn to buf.
func blockVPNs(buf []addr.VPN, vpbn addr.VPBN, lo, hi uint64) []addr.VPN {
	for boff := lo; boff <= hi; boff++ {
		buf = append(buf, addr.BlockJoin(vpbn, boff, logBlock))
	}
	return buf
}

// Lookup implements PageTable: the read path through replica 0, for
// callers that have not bound a Node.
func (s *Service) Lookup(va addr.V) (pte.Entry, bool) {
	rep := s.replicas[0]
	if w, boff, ok := rep.hit(va); ok {
		rep.hits.Add(1)
		return pte.EntryFromWord(w, addr.VPNOf(va), boff), true
	}
	e, _, ok := rep.walk(va)
	if ok {
		rep.fills.Add(1)
	} else {
		rep.faults.Add(1)
	}
	return e, ok
}

// Map implements PageTable, writing from node 0.
func (s *Service) Map(vpn addr.VPN, ppn addr.PPN, attr pte.Attr) error {
	return s.mapAt(0, vpn, ppn, attr)
}

func (s *Service) mapAt(origin int, vpn addr.VPN, ppn addr.PPN, attr pte.Attr) error {
	vpns := [1]addr.VPN{vpn}
	_, err := s.broadcast(origin, vpns[:], func(t pagetable.PageTable) (int, error) {
		if err := t.Map(vpn, ppn, attr); err != nil {
			return 0, err
		}
		return 1, nil
	})
	if err != nil {
		s.mapConflicts.Add(1)
		return err
	}
	s.maps.Add(1)
	return nil
}

// MapRange implements PageTable: the batched region-fault path. Each
// page block is one write round — one stripe acquisition per replica
// and one IPI round per remote replica, however many pages the block
// holds — so faulting a region in costs a fraction 1/blockPages of the
// locking a page-at-a-time loop pays.
func (s *Service) MapRange(vpn addr.VPN, ppn addr.PPN, n uint64, attr pte.Attr) (int, error) {
	return s.mapRangeAt(0, vpn, ppn, n, attr)
}

func (s *Service) mapRangeAt(origin int, vpn addr.VPN, ppn addr.PPN, n uint64, attr pte.Attr) (int, error) {
	if n == 0 {
		return 0, nil
	}
	mapped := 0
	var firstErr error
	var buf [blockPages]addr.VPN
	addr.PageRange(addr.VAOf(vpn), n).Blocks(logBlock, func(vpbn addr.VPBN, lo, hi uint64) bool {
		vpns := blockVPNs(buf[:0], vpbn, lo, hi)
		p, err := s.broadcast(origin, vpns, func(t pagetable.PageTable) (int, error) {
			for i, pv := range vpns {
				if err := t.Map(pv, ppn+addr.PPN(pv-vpn), attr); err != nil {
					return i, fmt.Errorf("page %d/%d: %w", mapped+i, n, err)
				}
			}
			return len(vpns), nil
		})
		mapped += p
		if err != nil {
			s.mapConflicts.Add(1)
			firstErr = err
			return false
		}
		return true
	})
	s.maps.Add(uint64(mapped))
	return mapped, firstErr
}

// Unmap implements PageTable, writing from node 0.
func (s *Service) Unmap(vpn addr.VPN) error {
	return s.unmapAt(0, vpn)
}

func (s *Service) unmapAt(origin int, vpn addr.VPN) error {
	vpns := [1]addr.VPN{vpn}
	_, err := s.broadcast(origin, vpns[:], func(t pagetable.PageTable) (int, error) {
		if err := t.Unmap(vpn); err != nil {
			return 0, err
		}
		return 1, nil
	})
	if err != nil {
		s.unmapMisses.Add(1)
		return err
	}
	s.unmaps.Add(1)
	return nil
}

// Protect implements PageTable. The range is processed one page block
// at a time, each block one write round charged for the block's pages.
// Organizations whose ProtectRange applies per-page semantics (all four
// standard ones; clustered demotes partially covered compact PTEs,
// §3.1) stay coherent because only translations inside the range
// change.
func (s *Service) Protect(rg addr.Range, set, clear pte.Attr) error {
	return s.protectAt(0, rg, set, clear)
}

func (s *Service) protectAt(origin int, rg addr.Range, set, clear pte.Attr) error {
	if rg.Empty() {
		return nil
	}
	var firstErr error
	var buf [blockPages]addr.VPN
	rg.Blocks(logBlock, func(vpbn addr.VPBN, lo, hi uint64) bool {
		vpns := blockVPNs(buf[:0], vpbn, lo, hi)
		sub := addr.PageRange(addr.VAOf(vpns[0]), uint64(len(vpns)))
		_, firstErr = s.broadcast(origin, vpns, func(t pagetable.PageTable) (int, error) {
			if _, err := t.ProtectRange(sub, set, clear); err != nil {
				return 0, err
			}
			return len(vpns), nil
		})
		return firstErr == nil
	})
	s.protects.Add(1)
	return firstErr
}

// tableDemoter is the organization-side demotion surface (clustered
// tables): split the compact PTE covering a block back into base PTEs,
// leaving every translation intact.
type tableDemoter interface {
	Demote(vpbn addr.VPBN) bool
	LogSBF() uint
}

// Demote splits the compact PTE covering vpn's block back into base
// PTEs on every replica, for organizations that support in-place
// demotion with a subblock factor no coarser than the lock block (one
// stripe must cover the whole split). It reports whether a split
// happened. Translations are unchanged either way, but the format
// change is a real PTE rewrite: the lock block's cache slots are
// invalidated so the next lookups observe the new format, and a
// successful split pays shootdown for its pages like any other write.
func (s *Service) Demote(vpn addr.VPN) bool {
	return s.demoteAt(0, vpn)
}

func (s *Service) demoteAt(origin int, vpn addr.VPN) bool {
	var buf [blockPages]addr.VPN
	vpbn, _ := addr.BlockSplit(vpn, logBlock)
	vpns := blockVPNs(buf[:0], vpbn, 0, blockPages-1)
	pages, err := s.broadcast(origin, vpns, func(t pagetable.PageTable) (int, error) {
		d, ok := t.(tableDemoter)
		if !ok || d.LogSBF() > logBlock {
			return 0, nil
		}
		if sb, _ := addr.BlockSplit(vpn, d.LogSBF()); !d.Demote(sb) {
			return 0, nil
		}
		return 1 << d.LogSBF(), nil
	})
	if err != nil || pages == 0 {
		return false
	}
	s.demotes.Add(1)
	return true
}

// Reset rewinds every replica's table (when the organization implements
// pagetable.Resetter), flushes every cache and hierarchy, and zeroes
// all counters, sequence stamps and the shootdown tally. Callers must
// be quiescent; every stripe of every replica is held exclusively for
// the duration, in the same (replica, stripe) order the broadcast uses,
// to stop in-flight fills from republishing dead translations.
func (s *Service) Reset() {
	for _, rep := range s.replicas {
		for i := range rep.stripes {
			rep.stripes[i].mu.Lock()
		}
	}
	for _, rep := range s.replicas {
		if rt, ok := rep.table.(pagetable.Resetter); ok {
			rt.Reset()
		}
		for i := range rep.cache {
			c := &rep.cache[i]
			c.drop(tagVPN(c.tag.Load()))
		}
		if h := rep.mmuh.Load(); h != nil {
			h.Shootdown()
		}
		rep.seq.Store(0)
		rep.hits.Store(0)
		rep.fills.Store(0)
		rep.faults.Store(0)
	}
	s.maps.Store(0)
	s.mapConflicts.Store(0)
	s.unmaps.Store(0)
	s.unmapMisses.Store(0)
	s.protects.Store(0)
	s.demotes.Store(0)
	s.sdBroadcasts.Store(0)
	s.sdIPIs.Store(0)
	s.sdRemotePages.Store(0)
	s.sdLines.Store(0)
	for _, rep := range s.replicas {
		for i := range rep.stripes {
			rep.stripes[i].mu.Unlock()
		}
	}
}

// MemStats sums the replicas' measured arena occupancy — replication
// multiplies table memory by design, and the meter should show it.
// Organizations that do not implement pagetable.MemReporter count as
// zero. Safe to call concurrently with traffic — the arenas keep their
// stats in atomics.
func (s *Service) MemStats() pagetable.MemStats {
	var total pagetable.MemStats
	for _, rep := range s.replicas {
		//ptlint:allow guardedby arena stats are atomics; no stripe needed for a monitoring read
		if mr, ok := rep.table.(pagetable.MemReporter); ok {
			total = total.Add(mr.MemStats())
		}
	}
	return total
}

// Stats implements PageTable: read counters summed over the replicas'
// interface lookup paths (Node traffic is accounted separately in
// NodeCost — the point of the node-local path is not sharing counter
// cache lines) plus the write counters.
func (s *Service) Stats() Stats {
	var st Stats
	for _, rep := range s.replicas {
		st.Hits += rep.hits.Load()
		st.Fills += rep.fills.Load()
		st.Faults += rep.faults.Load()
	}
	st.Maps = s.maps.Load()
	st.MapConflicts = s.mapConflicts.Load()
	st.Unmaps = s.unmaps.Load()
	st.UnmapMisses = s.unmapMisses.Load()
	st.Protects = s.protects.Load()
	st.Demotes = s.demotes.Load()
	return st
}

// Follower returns OnMap/OnUnmap observers for an mm.AddressSpace that
// mirror the space's base-page translations into every replica through
// the normal write path (so invalidation, sequence stamps and shootdown
// charges all apply). Wire them with
//
//	sp.OnMap, sp.OnUnmap = svc.Follower()
//
// chaining any previous hooks first if the space already has observers.
// The space's single-writer discipline extends to the service's write
// side: reads stay concurrent, but only the space may write while
// following.
func (s *Service) Follower() (onMap func(addr.VPN, addr.PPN, pte.Attr), onUnmap func(addr.VPN)) {
	onMap = func(vpn addr.VPN, ppn addr.PPN, attr pte.Attr) {
		if err := s.Map(vpn, ppn, attr); err != nil {
			// A reused page can change frames without an unmap event
			// when the space rebuilds a compact PTE in place; remap.
			if err := s.Unmap(vpn); err != nil {
				panic(fmt.Sprintf("service: follower remap unmap %#x: %v", uint64(vpn), err))
			}
			if err := s.Map(vpn, ppn, attr); err != nil {
				panic(fmt.Sprintf("service: follower remap %#x: %v", uint64(vpn), err))
			}
		}
	}
	onUnmap = func(vpn addr.VPN) {
		if err := s.Unmap(vpn); err != nil {
			panic(fmt.Sprintf("service: follower unmap %#x: %v", uint64(vpn), err))
		}
	}
	return onMap, onUnmap
}

// NodeCost is one Node's read-path accounting, denominated like the
// shootdown tally in local cache lines. Plain fields on purpose: a Node
// belongs to one goroutine, and atomics here would put shared-line
// traffic back on the path replication exists to clear.
type NodeCost struct {
	// Hits are lookups served lock-free from the home replica's cache.
	Hits uint64
	// Fills walked the home replica's table; Faults found no mapping.
	Fills, Faults uint64
	// LocalLines are walk lines paid at local cost (node hosts its home
	// replica); RemoteLines are walk lines already scaled by the remote
	// factor (node reaches its home replica over the interconnect).
	LocalLines, RemoteLines uint64
}

// Lines returns the total modeled walk cost in local cache lines.
func (c NodeCost) Lines() uint64 { return c.LocalLines + c.RemoteLines }

// Lookups returns the node's total lookup count.
func (c NodeCost) Lookups() uint64 { return c.Hits + c.Fills + c.Faults }

// Node binds one reader goroutine to its home replica: the scalable
// read path. A Node is NOT safe for concurrent use — create one per
// goroutine (the Service itself stays safe; only the Node's plain
// counters are unshared). Writes through a Node take the same write
// path as the interface, charged from the node's position.
type Node struct {
	s     *Service
	rep   *replica
	id    int
	local bool
	cost  NodeCost
}

// Node binds node id (0 ≤ id < Nodes()) to its home replica, replica
// id mod R.
func (s *Service) Node(id int) *Node {
	if id < 0 || id >= s.cfg.NUMA.Nodes {
		panic(fmt.Sprintf("service: node %d on a %d-node machine", id, s.cfg.NUMA.Nodes))
	}
	return &Node{s: s, rep: s.replicas[id%len(s.replicas)], id: id, local: s.localTo(id)}
}

// Cost returns the node's read-path accounting.
func (n *Node) Cost() NodeCost { return n.cost }

// ResetCost zeroes the node's accounting.
func (n *Node) ResetCost() { n.cost = NodeCost{} }

// Lookup resolves va through the home replica: cache hit lock-free and
// line-free, miss under the home stripe's read lock with the walk's
// line count charged at local or remote cost. The path touches no
// state shared with nodes bound to other replicas.
func (n *Node) Lookup(va addr.V) (pte.Entry, bool) {
	if w, boff, ok := n.rep.hit(va); ok {
		n.cost.Hits++
		return pte.EntryFromWord(w, addr.VPNOf(va), boff), true
	}
	e, lines, ok := n.rep.walk(va)
	priced := uint64(n.s.cfg.NUMA.WalkLines(lines, n.local))
	if n.local {
		n.cost.LocalLines += priced
	} else {
		n.cost.RemoteLines += priced
	}
	if ok {
		n.cost.Fills++
	} else {
		n.cost.Faults++
	}
	return e, ok
}

// Map writes one mapping from this node's position.
func (n *Node) Map(vpn addr.VPN, ppn addr.PPN, attr pte.Attr) error {
	return n.s.mapAt(n.id, vpn, ppn, attr)
}

// MapRange writes a region fault from this node's position.
func (n *Node) MapRange(vpn addr.VPN, ppn addr.PPN, count uint64, attr pte.Attr) (int, error) {
	return n.s.mapRangeAt(n.id, vpn, ppn, count, attr)
}

// Unmap writes one unmap from this node's position.
func (n *Node) Unmap(vpn addr.VPN) error {
	return n.s.unmapAt(n.id, vpn)
}

// Protect writes a protection change from this node's position.
func (n *Node) Protect(rg addr.Range, set, clear pte.Attr) error {
	return n.s.protectAt(n.id, rg, set, clear)
}

// Demote writes a block demotion from this node's position.
func (n *Node) Demote(vpn addr.VPN) bool {
	return n.s.demoteAt(n.id, vpn)
}

var _ PageTable = (*Service)(nil)

// Package core implements the paper's central contribution: the clustered
// page table (Talluri, Hill & Khalidi, SOSP 1995, §3 and §5).
//
// A clustered page table is a hashed page table augmented with
// subblocking: each hash node carries a single virtual tag and next
// pointer but stores mapping information for an aligned group of
// consecutive base pages — a page block (e.g. sixteen 4KB pages). During
// lookup the virtual page number splits into a virtual page block number
// (VPBN), which participates in the hash function, and a block offset,
// which indexes the node's array of mapping words.
//
// The same hash chains also hold the compact PTE formats of §5: a
// partial-subblock node (one mapping word with a 16-bit valid vector and
// the base frame of a properly-placed frame block) and a superpage node
// (one mapping word with a SZ field). The TLB miss handler traverses the
// chain exactly as for base pages and only differs after the tag match,
// when it consults the S field of the mapping word — so superpage and
// partial-subblock PTEs are serviced without increasing the TLB miss
// penalty while using 24 bytes instead of 8s+16.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"clusterpt/internal/addr"
	"clusterpt/internal/memcost"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/ptalloc"
	"clusterpt/internal/pte"
)

// Defaults from the paper's base case (§6.1).
const (
	// DefaultSubblockFactor is the paper's base-case subblock factor.
	DefaultSubblockFactor = 16
	// DefaultBuckets is the paper's base-case hash bucket count.
	DefaultBuckets = 4096
	// MinSubblockFactor and MaxSubblockFactor bound the subblock factor,
	// which must also be a power of two.
	MinSubblockFactor = 2
	MaxSubblockFactor = 64

	// headerBytes is the per-node tag + next pointer overhead: eight
	// bytes each with 64-bit addresses (§2).
	headerBytes = 16
	// compactNodeBytes is the size of a partial-subblock or superpage
	// node: tag, next and one mapping word (§5).
	compactNodeBytes = headerBytes + pte.WordBytes
)

// Config parameterizes a clustered page table.
type Config struct {
	// SubblockFactor is the number of base pages per page block. It must
	// be a power of two in [2, 64]; partial-subblock PTEs additionally
	// require ≤16 because of the valid-vector width (§4.3). The default
	// is 16.
	SubblockFactor int
	// Buckets is the hash bucket count, a power of two. The default is
	// 4096.
	Buckets int
	// CostModel sets the cache-line geometry for walk accounting. The
	// zero value means 256-byte lines (§6.1).
	CostModel memcost.Model
	// SparseNodes enables the variable-subblock-factor generalization
	// sketched in §3: a block populated with a single mapping is stored
	// in a compact 24-byte node (the block offset rides in unused tag
	// bits) and is widened to a full node on the second insertion. This
	// trades a few extra miss-handler instructions for better memory
	// utilization in very sparse address spaces.
	SparseNodes bool
}

func (c *Config) fill() error {
	if c.SubblockFactor == 0 {
		c.SubblockFactor = DefaultSubblockFactor
	}
	if c.Buckets == 0 {
		c.Buckets = DefaultBuckets
	}
	if c.SubblockFactor < MinSubblockFactor || c.SubblockFactor > MaxSubblockFactor || !addr.IsPow2(uint64(c.SubblockFactor)) {
		return fmt.Errorf("core: subblock factor %d not a power of two in [%d, %d]",
			c.SubblockFactor, MinSubblockFactor, MaxSubblockFactor)
	}
	if !addr.IsPow2(uint64(c.Buckets)) {
		return fmt.Errorf("core: bucket count %d not a power of two", c.Buckets)
	}
	if c.CostModel.LineSize == 0 {
		c.CostModel = memcost.NewModel(0)
	}
	return nil
}

// Table is a clustered page table. It is safe for concurrent use: each
// hash bucket carries a readers-writer lock, so range operations acquire a
// single lock per page block (§3.1) while TLB-miss lookups on neighboring
// blocks proceed in parallel.
type Table struct {
	cfg     Config
	logSBF  uint
	buckets []bucket

	// Node storage: chain nodes come from the node arena, their mapping-
	// word vectors from the word arena (full nodes use s-word runs,
	// compact and sparse nodes 1-word runs, so the word arena's live
	// bytes are exactly the paper's PTEBytes minus the 16-byte header
	// charge per node).
	nodes *ptalloc.Arena[node]
	words *ptalloc.SliceArena[pte.Word]

	stats    pagetable.Counters
	nFull    atomic.Uint64 // full (complete-subblock) nodes
	nCompact atomic.Uint64 // partial-subblock + superpage nodes
	nSparse  atomic.Uint64 // single-mapping sparse nodes (SparseNodes mode)
	nMapped  atomic.Uint64 // valid base-page translations
}

type bucket struct {
	mu   sync.RWMutex
	head *node
}

// New creates a clustered page table.
func New(cfg Config) (*Table, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return &Table{
		cfg:     cfg,
		logSBF:  addr.Log2(uint64(cfg.SubblockFactor)),
		buckets: make([]bucket, cfg.Buckets),
		nodes:   ptalloc.NewArena[node](),
		words:   ptalloc.NewSliceArena[pte.Word](),
	}, nil
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
func (t *Table) Name() string { return "clustered" }

// SubblockFactor returns the configured pages-per-block.
func (t *Table) SubblockFactor() int { return t.cfg.SubblockFactor }

// LogSBF returns log2 of the subblock factor.
func (t *Table) LogSBF() uint { return t.logSBF }

// Buckets returns the hash bucket count.
func (t *Table) Buckets() int { return t.cfg.Buckets }

// fullNodeBytes is the paper size of a complete-subblock node: 8s+16.
func (t *Table) fullNodeBytes() uint64 {
	return headerBytes + uint64(t.cfg.SubblockFactor)*pte.WordBytes
}

func (t *Table) bucketFor(vpbn addr.VPBN) *bucket {
	return &t.buckets[pagetable.BucketIndex(pagetable.HashVPN(uint64(vpbn)), t.cfg.Buckets)]
}

// Size implements pagetable.PageTable. PTE bytes follow the paper's
// accounting: (8s+16) per full node, 24 per compact or sparse node; the
// bucket array is fixed overhead excluded from the Figure 9/10
// normalization.
func (t *Table) Size() pagetable.Size {
	nFull, nCompact, nSparse := t.nFull.Load(), t.nCompact.Load(), t.nSparse.Load()
	return pagetable.Size{
		PTEBytes: nFull*t.fullNodeBytes() +
			(nCompact+nSparse)*compactNodeBytes,
		FixedBytes: uint64(t.cfg.Buckets) * 8,
		Nodes:      nFull + nCompact + nSparse,
		Mappings:   t.nMapped.Load(),
	}
}

// Stats implements pagetable.PageTable.
func (t *Table) Stats() pagetable.Stats {
	return t.stats.Snapshot()
}

// MemStats implements pagetable.MemReporter: measured arena occupancy.
// The word arena's live bytes relate exactly to the analytical Size():
// Payload.LiveBytes == Size().PTEBytes - headerBytes*Size().Nodes.
func (t *Table) MemStats() pagetable.MemStats {
	return pagetable.MemStats{Nodes: t.nodes.Stats(), Payload: t.words.Stats()}
}

// Reset implements pagetable.Resetter: it drops every mapping and
// returns the table to its just-constructed state in O(buckets), with
// both arenas rewound in O(1) and their slabs retained for refill.
func (t *Table) Reset() {
	// Reset requires quiescence: no operation may be in flight, and the
	// caller must publish the reset through its own synchronization (the
	// pool mutex, the service's stripe locks, or a goroutine join), so
	// the bucket heads are cleared with plain writes — taking 4096 bucket
	// locks here dominated the pooled-rebuild profile.
	for i := range t.buckets {
		t.buckets[i].head = nil
	}
	t.nodes.Reset()
	t.words.Reset()
	t.nFull.Store(0)
	t.nCompact.Store(0)
	t.nSparse.Store(0)
	t.nMapped.Store(0)
	t.stats.Reset()
}

// allocNode carves a chain node and its nwords-long mapping vector out
// of the table's arenas.
func (t *Table) allocNode(vpbn addr.VPBN, kind nodeKind, nwords int) *node {
	h, nd := t.nodes.Alloc()
	wh, words := t.words.Alloc(nwords)
	nd.vpbn, nd.kind, nd.words, nd.h, nd.wh = vpbn, kind, words, h, wh
	return nd
}

// setWords replaces nd's mapping vector with a fresh zeroed run of n
// words, freeing the old run. Callers capture any word they need to
// carry over before calling.
func (t *Table) setWords(nd *node, n int) {
	t.words.Free(nd.wh)
	nd.wh, nd.words = t.words.Alloc(n)
}

// freeNode returns a node and its mapping vector to the arenas. The
// node must already be unlinked from its chain.
func (t *Table) freeNode(nd *node) {
	t.words.Free(nd.wh)
	t.nodes.Free(nd.h)
}

// unlinkFree unlinks nd from its chain and frees its storage. Caller
// holds the bucket write lock.
func (t *Table) unlinkFree(b *bucket, nd *node) {
	b.unlink(nd)
	t.freeNode(nd)
}

// AuditSize recomputes the size accounting by walking every bucket,
// independently of the incremental counters Size reports. The two must
// agree; the fuzz suite asserts it after long mixed-operation runs.
func (t *Table) AuditSize() pagetable.Size {
	var sz pagetable.Size
	for i := range t.buckets {
		b := &t.buckets[i]
		b.mu.RLock()
		for nd := b.head; nd != nil; nd = nd.next {
			sz.Nodes++
			sz.PTEBytes += nd.paperBytes(t.fullNodeBytes())
			sz.Mappings += nd.mappedPages(t.cfg.SubblockFactor)
		}
		b.mu.RUnlock()
	}
	sz.FixedBytes = uint64(t.cfg.Buckets) * 8
	return sz
}

// ChainStats reports hash-chain occupancy: the load factor α =
// nodes/buckets and the longest chain. The average successful search cost
// approaches 1 + α/2 nodes (Appendix Table 2, [Knut68]).
func (t *Table) ChainStats() (alpha float64, maxChain int) {
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

var (
	_ pagetable.PageTable       = (*Table)(nil)
	_ pagetable.SuperpageMapper = (*Table)(nil)
	_ pagetable.PartialMapper   = (*Table)(nil)
	_ pagetable.BlockReader     = (*Table)(nil)
	_ pagetable.MemReporter     = (*Table)(nil)
	_ pagetable.Resetter        = (*Table)(nil)
)

// Package hashed implements the conventional hashed (inverted) page table
// of §2: an open hash table mapping virtual page numbers to PTEs, each PTE
// carrying a tag identifying the VPN, a next pointer, and eight bytes of
// mapping information — 24 bytes per translation, a 200% overhead that
// motivates the clustered page table. The package also provides the
// paper's hashed-table variants: the multiple-page-table organization used
// to store superpage and partial-subblock PTEs (§4.2), the superpage-index
// organization, the packed 16-byte PTE optimization (§7), and an inverted
// page table (§2).
package hashed

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

// DefaultBuckets is the paper's base-case bucket count (§6.1).
const DefaultBuckets = 4096

// Node sizes under the paper's accounting.
const (
	// nodeBytes is tag (8) + next (8) + mapping (8).
	nodeBytes = 24
	// packedNodeBytes applies the §7 optimization: tag and next share
	// eight bytes by dropping inferable tag bits and shortening the next
	// pointer, reducing PTE size by 33%.
	packedNodeBytes = 16
)

// Config parameterizes a hashed page table.
type Config struct {
	// Buckets is the hash bucket count, a power of two; default 4096.
	Buckets int
	// CostModel sets cache-line geometry; zero means 256-byte lines.
	CostModel memcost.Model
	// PackedPTE enables the §7 16-byte PTE optimization. It changes size
	// accounting only: the number of cache lines per miss is unchanged
	// (both node sizes fit one line).
	PackedPTE bool
}

func (c *Config) fill() error {
	if c.Buckets == 0 {
		c.Buckets = DefaultBuckets
	}
	if !addr.IsPow2(uint64(c.Buckets)) {
		return fmt.Errorf("hashed: bucket count %d not a power of two", c.Buckets)
	}
	if c.CostModel.LineSize == 0 {
		c.CostModel = memcost.NewModel(0)
	}
	return nil
}

// Table is a single-page-size hashed page table (Figure 4). It is safe
// for concurrent use with per-bucket readers-writer locks.
type Table struct {
	cfg     Config
	buckets []bucket
	nodes   *ptalloc.Arena[node]

	stats  pagetable.Counters
	nNodes atomic.Uint64
}

type bucket struct {
	mu   sync.RWMutex
	head *node
}

// node is one hash-chain element: tag, next, one mapping word, plus its
// arena handle so Unmap can return it.
type node struct {
	vpn  addr.VPN
	next *node
	word pte.Word
	h    ptalloc.Handle
}

// New creates a hashed page table.
func New(cfg Config) (*Table, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return &Table{
		cfg:     cfg,
		buckets: make([]bucket, cfg.Buckets),
		nodes:   ptalloc.NewArena[node](),
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
func (t *Table) Name() string {
	if t.cfg.PackedPTE {
		return "hashed-packed"
	}
	return "hashed"
}

// Buckets returns the bucket count.
func (t *Table) Buckets() int { return t.cfg.Buckets }

func (t *Table) nodeBytes() uint64 {
	if t.cfg.PackedPTE {
		return packedNodeBytes
	}
	return nodeBytes
}

func (t *Table) bucketFor(vpn addr.VPN) *bucket {
	return &t.buckets[pagetable.BucketIndex(pagetable.HashVPN(uint64(vpn)), t.cfg.Buckets)]
}

// Lookup implements pagetable.PageTable: the §2 chain walk.
func (t *Table) Lookup(va addr.V) (pte.Entry, pagetable.WalkCost, bool) {
	vpn := addr.VPNOf(va)
	b := t.bucketFor(vpn)
	b.mu.RLock()
	e, cost, ok := t.lookupLocked(b, vpn)
	b.mu.RUnlock()

	t.stats.NoteLookup(ok)
	return e, cost, ok
}

func (t *Table) lookupLocked(b *bucket, vpn addr.VPN) (pte.Entry, pagetable.WalkCost, bool) {
	var meter memcost.Meter
	cost := pagetable.WalkCost{Probes: 1}
	for nd := b.head; nd != nil; nd = nd.next {
		cost.Nodes++
		// A whole 24-byte node fits in one line at any modeled geometry.
		meter.Touch(t.cfg.CostModel, [2]int{0, int(t.nodeBytes())})
		if nd.vpn == vpn && nd.word.Valid() {
			cost.Lines = meter.Lines()
			return pte.EntryFromWord(nd.word, vpn, 0), cost, true
		}
	}
	// The bucket array holds the chains' first nodes (Figure 4): probing
	// an empty bucket still reads one line.
	cost.Lines = meter.Lines()
	if cost.Lines == 0 {
		cost.Lines = 1
	}
	return pte.Entry{}, cost, false
}

// Map implements pagetable.PageTable. Each insertion pays the full
// allocation + list-insertion + tag-initialization overhead — the per-PTE
// fixed cost §3.1 contrasts with clustered amortization.
func (t *Table) Map(vpn addr.VPN, ppn addr.PPN, attr pte.Attr) error {
	b := t.bucketFor(vpn)
	b.mu.Lock()
	defer b.mu.Unlock()
	for nd := b.head; nd != nil; nd = nd.next {
		if nd.vpn == vpn && nd.word.Valid() {
			return pagetable.ErrAlreadyMapped
		}
	}
	h, nd := t.nodes.Alloc()
	nd.vpn, nd.word, nd.h = vpn, pte.MakeBase(ppn, attr), h
	nd.next, b.head = b.head, nd

	t.nNodes.Add(1)
	t.stats.NoteInsert()
	return nil
}

// Unmap implements pagetable.PageTable.
func (t *Table) Unmap(vpn addr.VPN) error {
	b := t.bucketFor(vpn)
	b.mu.Lock()
	defer b.mu.Unlock()
	for link := &b.head; *link != nil; link = &(*link).next {
		if nd := *link; nd.vpn == vpn && nd.word.Valid() {
			*link = nd.next
			t.nodes.Free(nd.h)
			t.nNodes.Add(^uint64(0))
			t.stats.NoteRemove()
			return nil
		}
	}
	return pagetable.ErrNotMapped
}

// ProtectRange implements pagetable.PageTable. A hashed page table must
// search the hash table once per base page (§3.1) — the cost clustered
// tables amortize to once per page block.
func (t *Table) ProtectRange(r addr.Range, set, clear pte.Attr) (pagetable.WalkCost, error) {
	var cost pagetable.WalkCost
	r.Pages(func(vpn addr.VPN) bool {
		b := t.bucketFor(vpn)
		b.mu.Lock()
		cost.Probes++
		for nd := b.head; nd != nil; nd = nd.next {
			cost.Nodes++
			if nd.vpn == vpn && nd.word.Valid() {
				nd.word = nd.word.WithAttr(nd.word.Attr()&^clear | set)
				break
			}
		}
		b.mu.Unlock()
		return true
	})
	return cost, nil
}

// Size implements pagetable.PageTable: 24 bytes per PTE (Table 2), 16
// with the packed optimization; the bucket array is fixed overhead.
func (t *Table) Size() pagetable.Size {
	n := t.nNodes.Load()
	return pagetable.Size{
		PTEBytes:   n * t.nodeBytes(),
		FixedBytes: uint64(t.cfg.Buckets) * 8,
		Nodes:      n,
		Mappings:   n,
	}
}

// Stats implements pagetable.PageTable.
func (t *Table) Stats() pagetable.Stats {
	return t.stats.Snapshot()
}

// MemStats implements pagetable.MemReporter. One live node per valid
// mapping; the analytical Size() charges each node 24 bytes (16 packed)
// while the node arena charges the Go struct size.
func (t *Table) MemStats() pagetable.MemStats {
	return pagetable.MemStats{Nodes: t.nodes.Stats()}
}

// Reset implements pagetable.Resetter.
func (t *Table) Reset() {
	// Quiescence contract (see core.Table.Reset): the caller's own
	// synchronization publishes these plain writes.
	for i := range t.buckets {
		t.buckets[i].head = nil
	}
	t.nodes.Reset()
	t.nNodes.Store(0)
	t.stats.Reset()
}

// ChainStats reports the load factor α = PTEs/buckets and the longest
// chain; average successful search cost approaches 1 + α/2 (Table 2).
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

// LookupBlock implements pagetable.BlockReader as AppendBlock into a
// nil buffer.
func (t *Table) LookupBlock(vpbn addr.VPBN, logSBF uint) ([]pte.Entry, pagetable.WalkCost, bool) {
	return t.AppendBlock(nil, vpbn, logSBF)
}

// AppendBlock implements pagetable.BlockReader the only way a hashed
// table can: one full probe per base page in the block. This is the §4.4
// observation that subblock prefetching is very expensive for hashed
// tables — Figure 11d's "terrible" case.
func (t *Table) AppendBlock(dst []pte.Entry, vpbn addr.VPBN, logSBF uint) ([]pte.Entry, pagetable.WalkCost, bool) {
	n := len(dst)
	var cost pagetable.WalkCost
	sbf := uint64(1) << logSBF
	for boff := uint64(0); boff < sbf; boff++ {
		vpn := addr.BlockJoin(vpbn, boff, logSBF)
		b := t.bucketFor(vpn)
		b.mu.RLock()
		e, c, ok := t.lookupLocked(b, vpn)
		b.mu.RUnlock()
		cost.Add(c)
		if ok {
			dst = append(dst, e)
		}
	}
	return dst, cost, len(dst) > n
}

var (
	_ pagetable.PageTable   = (*Table)(nil)
	_ pagetable.BlockReader = (*Table)(nil)
	_ pagetable.MemReporter = (*Table)(nil)
	_ pagetable.Resetter    = (*Table)(nil)
)

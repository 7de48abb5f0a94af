// Package forward implements the forward-mapped page table of §2: an
// n-ary tree walked top-down, with PTEs at the leaves and page-table
// pointers (PTPs) at intermediate nodes, as in the SPARC Reference MMU.
// Extending it to 64-bit addresses needs a seven-level tree, and §2 calls
// the resulting seven memory accesses per TLB miss impractical — this
// implementation exists as the paper's baseline and reproduces exactly
// that cost.
//
// Superpages can be stored two ways: replicated at every covered leaf
// site (§4.2 "Replicate PTEs", the mode the paper's experiments assume for
// forward-mapped tables), or at intermediate tree nodes whose coverage
// matches the superpage size (§4.2 "Forward-Mapped Intermediate Nodes"),
// which shortens the walk for superpage hits but only supports sizes that
// correspond to tree levels.
package forward

import (
	"fmt"
	"math/bits"
	"sync"

	"clusterpt/internal/addr"
	"clusterpt/internal/memcost"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/ptalloc"
	"clusterpt/internal/pte"
)

// Default64LevelBits is the default 64-bit tree shape, root to leaf: a
// 16-entry root and six 256-entry levels covering the 52 VPN bits in
// seven levels (Figure 3).
var Default64LevelBits = []uint{4, 8, 8, 8, 8, 8, 8}

// Default32LevelBits is a SPARC-Reference-MMU-like three-level shape for
// 32-bit addresses (8+6+6 index bits).
var Default32LevelBits = []uint{8, 6, 6}

// Config parameterizes a forward-mapped page table.
type Config struct {
	// LevelBits gives the index width of each tree level from root to
	// leaf; the widths must sum to the VPN width being covered. Default
	// is Default64LevelBits.
	LevelBits []uint
	// LogSBF fixes the block geometry for replicated partial-subblock
	// words; default 4.
	LogSBF uint
	// CostModel sets cache-line geometry; zero means 256-byte lines.
	CostModel memcost.Model
}

func (c *Config) fill() error {
	if len(c.LevelBits) == 0 {
		c.LevelBits = Default64LevelBits
	}
	var sum uint
	for _, b := range c.LevelBits {
		if b == 0 || b > 16 {
			return fmt.Errorf("forward: level width %d out of range", b)
		}
		sum += b
	}
	if sum > addr.VPNBits {
		return fmt.Errorf("forward: level widths cover %d bits, VPN has %d", sum, addr.VPNBits)
	}
	if c.LogSBF == 0 {
		c.LogSBF = 4
	}
	if c.LogSBF > 4 {
		return fmt.Errorf("forward: LogSBF %d too wide", c.LogSBF)
	}
	if c.CostModel.LineSize == 0 {
		c.CostModel = memcost.NewModel(0)
	}
	return nil
}

// fentry is one slot of a tree node: a child pointer at intermediate
// levels or a mapping word; an intermediate slot holding a valid word is
// a superpage PTE stored at that node.
type fentry struct {
	child *fnode
	word  pte.Word
}

// fnode is one tree node. The entry array lives in the table's fentry
// slice arena (every level width is a power of two, so the size-class
// run is exact); h and eh let pruning return both to their arenas.
type fnode struct {
	entries []fentry
	count   int // occupied slots (child or valid word)
	h       ptalloc.Handle
	eh      ptalloc.Handle
}

// Table is a forward-mapped page table.
type Table struct {
	cfg Config
	// shift[i] is how far to shift a VPN right before masking with
	// mask[i] to index level i (0 = root).
	shift []uint
	mask  []uint64
	// coverage[i] is base pages covered per entry at level i.
	coverage []uint64

	mu         sync.RWMutex
	root       *fnode
	nodesAtLvl []uint64
	nMapped    uint64
	stats      pagetable.Counters

	nodes   *ptalloc.Arena[fnode]
	entries *ptalloc.SliceArena[fentry]
}

// New creates a forward-mapped page table.
func New(cfg Config) (*Table, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	n := len(cfg.LevelBits)
	t := &Table{
		cfg:        cfg,
		shift:      make([]uint, n),
		mask:       make([]uint64, n),
		coverage:   make([]uint64, n),
		nodesAtLvl: make([]uint64, n),
		nodes:      ptalloc.NewArena[fnode](),
		entries:    ptalloc.NewSliceArena[fentry](),
	}
	var below uint
	for i := n - 1; i >= 0; i-- {
		t.shift[i] = below
		t.mask[i] = 1<<cfg.LevelBits[i] - 1
		t.coverage[i] = 1 << below
		below += cfg.LevelBits[i]
	}
	t.root = t.newNode(0)
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

func (t *Table) newNode(level int) *fnode {
	t.nodesAtLvl[level]++
	h, nd := t.nodes.Alloc()
	nd.h = h
	nd.eh, nd.entries = t.entries.Alloc(1 << t.cfg.LevelBits[level])
	return nd
}

// freeNode returns a pruned node and its entry array to the arenas.
// Caller holds the write lock and has already unlinked the node.
func (t *Table) freeNode(nd *fnode) {
	t.entries.Free(nd.eh)
	t.nodes.Free(nd.h)
}

// Name implements pagetable.PageTable.
func (t *Table) Name() string { return fmt.Sprintf("forward-%dlevel", len(t.cfg.LevelBits)) }

// NumLevels returns the tree depth.
func (t *Table) NumLevels() int { return len(t.cfg.LevelBits) }

// LeafSpan returns log2 of the base pages one leaf node covers (the
// last level's index width) — the natural span of a page-walk-cache
// entry over this tree.
func (t *Table) LeafSpan() uint { return t.cfg.LevelBits[len(t.cfg.LevelBits)-1] }

// UpperWalkCost implements pagetable.UpperWalker: the intermediate
// levels of the top-down walk — everything above the leaf access, one
// line and one node per level — which is what a page-walk cache elides
// on a hit. A constant of the tree shape.
func (t *Table) UpperWalkCost(addr.VPN) pagetable.WalkCost {
	n := len(t.cfg.LevelBits) - 1
	return pagetable.WalkCost{Lines: n, Nodes: n, Probes: 1}
}

func (t *Table) slot(vpn addr.VPN, level int) uint64 {
	return uint64(vpn) >> t.shift[level] & t.mask[level]
}

// Lookup implements pagetable.PageTable: a top-down walk costing one
// cache line per level — the nlevels cost of Table 2. A superpage PTE at
// an intermediate node terminates the walk early.
func (t *Table) Lookup(va addr.V) (pte.Entry, pagetable.WalkCost, bool) {
	vpn := addr.VPNOf(va)
	t.mu.RLock()
	e, cost, ok := t.lookupLocked(vpn)
	t.mu.RUnlock()
	t.stats.NoteLookup(ok)
	return e, cost, ok
}

func (t *Table) lookupLocked(vpn addr.VPN) (pte.Entry, pagetable.WalkCost, bool) {
	var meter memcost.Meter
	var cost pagetable.WalkCost
	cost.Probes = 1
	nd := t.root
	for lvl := 0; lvl < len(t.cfg.LevelBits); lvl++ {
		cost.Nodes++
		s := t.slot(vpn, lvl)
		meter.Touch(t.cfg.CostModel, [2]int{int(s) * pte.WordBytes, pte.WordBytes})
		ent := &nd.entries[s]
		if ent.word.Valid() {
			cost.Lines = meter.Lines()
			boff := uint64(vpn) & (1<<t.cfg.LogSBF - 1)
			if ent.word.Kind() == pte.KindPartial && !ent.word.ValidAt(boff) {
				return pte.Entry{}, cost, false
			}
			return pte.EntryFromWord(ent.word, vpn, boff), cost, true
		}
		if ent.child == nil {
			cost.Lines = meter.Lines()
			return pte.Entry{}, cost, false
		}
		nd = ent.child
	}
	cost.Lines = meter.Lines()
	return pte.Entry{}, cost, false
}

// maxLevels bounds the tree depth: every level consumes at least one VPN
// bit. A walk's node path fits a [maxLevels]*fnode buffer on the
// caller's stack.
const maxLevels = addr.VPNBits

// walkTo appends to path the nodes from the root to the leaf covering
// vpn, allocating missing nodes when create is set. Caller holds the
// write lock. It fails if an intermediate superpage PTE already covers
// vpn.
func (t *Table) walkTo(path []*fnode, vpn addr.VPN, create bool) ([]*fnode, error) {
	nd := t.root
	for lvl := 0; ; lvl++ {
		path = append(path, nd)
		if lvl == len(t.cfg.LevelBits)-1 {
			return path, nil
		}
		ent := &nd.entries[t.slot(vpn, lvl)]
		if ent.word.Valid() {
			return nil, pagetable.ErrAlreadyMapped
		}
		if ent.child == nil {
			if !create {
				return nil, pagetable.ErrNotMapped
			}
			ent.child = t.newNode(lvl + 1)
			nd.count++
		}
		nd = ent.child
	}
}

// setLeafWord installs a word at the leaf slot for vpn. Caller holds the
// write lock.
func (t *Table) setLeafWord(vpn addr.VPN, w pte.Word) error {
	var buf [maxLevels]*fnode
	path, err := t.walkTo(buf[:0], vpn, true)
	if err != nil {
		return err
	}
	leaf := path[len(path)-1]
	s := t.slot(vpn, len(path)-1)
	if leaf.entries[s].word.Valid() {
		t.pruneIfEmpty(vpn, path)
		return pagetable.ErrAlreadyMapped
	}
	leaf.entries[s].word = w
	leaf.count++
	return nil
}

// pruneIfEmpty unlinks empty nodes along the path bottom-up. Caller holds
// the write lock.
func (t *Table) pruneIfEmpty(vpn addr.VPN, path []*fnode) {
	for lvl := len(path) - 1; lvl > 0; lvl-- {
		if path[lvl].count > 0 {
			return
		}
		parent := path[lvl-1]
		s := t.slot(vpn, lvl-1)
		if parent.entries[s].child == path[lvl] {
			parent.entries[s].child = nil
			parent.count--
			t.nodesAtLvl[lvl]--
			t.freeNode(path[lvl])
		}
	}
}

// Map implements pagetable.PageTable.
func (t *Table) Map(vpn addr.VPN, ppn addr.PPN, attr pte.Attr) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.setLeafWord(vpn, pte.MakeBase(ppn, attr)); err != nil {
		return err
	}
	t.nMapped++
	t.stats.NoteInsert()
	return nil
}

// Unmap implements pagetable.PageTable.
func (t *Table) Unmap(vpn addr.VPN) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var buf [maxLevels]*fnode
	path, err := t.walkTo(buf[:0], vpn, false)
	if err != nil {
		return err
	}
	leaf := path[len(path)-1]
	s := t.slot(vpn, len(path)-1)
	w := leaf.entries[s].word
	if !w.Valid() {
		return pagetable.ErrNotMapped
	}
	if w.Kind() != pte.KindBase {
		// A base-page unmap of a page covered by a replicated superpage or
		// partial-subblock PTE demotes the surviving replicas to per-page
		// base words, then removes just the target — the same semantics the
		// clustered table gets from its in-place demotion, so every
		// organization answers Unmap identically behind one interface.
		// UnmapReplicated remains the cheap whole-object removal.
		if err := t.demoteReplicasLocked(vpn, w); err != nil {
			return err
		}
	}
	leaf.entries[s].word = pte.Invalid
	leaf.count--
	t.pruneIfEmpty(vpn, path)
	t.nMapped--
	t.stats.NoteRemove()
	return nil
}

// ProtectRange implements pagetable.PageTable: one full tree walk per
// base page.
func (t *Table) ProtectRange(r addr.Range, set, clear pte.Attr) (pagetable.WalkCost, error) {
	var cost pagetable.WalkCost
	t.mu.Lock()
	defer t.mu.Unlock()
	r.Pages(func(vpn addr.VPN) bool {
		cost.Probes++
		nd := t.root
		for lvl := 0; lvl < len(t.cfg.LevelBits); lvl++ {
			cost.Nodes++
			ent := &nd.entries[t.slot(vpn, lvl)]
			if ent.word.Valid() {
				ent.word = ent.word.WithAttr(ent.word.Attr()&^clear | set)
				return true
			}
			if ent.child == nil {
				return true
			}
			nd = ent.child
		}
		return true
	})
	return cost, nil
}

// Size implements pagetable.PageTable: Σ n_i × 8 × Nactive(pb_i) over the
// tree levels (Table 2).
func (t *Table) Size() pagetable.Size {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var sz pagetable.Size
	for lvl, n := range t.nodesAtLvl {
		sz.PTEBytes += n * uint64(1<<t.cfg.LevelBits[lvl]) * pte.WordBytes
		sz.Nodes += n
	}
	sz.Mappings = t.nMapped
	return sz
}

// NodesAtLevels reports populated node counts root-to-leaf.
func (t *Table) NodesAtLevels() []uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]uint64, len(t.nodesAtLvl))
	copy(out, t.nodesAtLvl)
	return out
}

// Stats implements pagetable.PageTable.
func (t *Table) Stats() pagetable.Stats {
	return t.stats.Snapshot()
}

// MemStats implements pagetable.MemReporter. Node headers live in the
// fnode arena; entry arrays in the fentry slice arena. The analytical
// Size() charges 8 bytes per entry (a packed PTP/PTE word) while fentry
// is a 16-byte Go struct, so the measured payload is 2× the model — a
// fixed, test-checked factor.
func (t *Table) MemStats() pagetable.MemStats {
	return pagetable.MemStats{Nodes: t.nodes.Stats(), Payload: t.entries.Stats()}
}

// Reset implements pagetable.Resetter: both arenas rewind and a fresh
// root is carved, leaving the table exactly as New returned it.
func (t *Table) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nodes.Reset()
	t.entries.Reset()
	clear(t.nodesAtLvl)
	t.root = t.newNode(0)
	t.nMapped = 0
	t.stats.Reset()
}

// levelForSize returns the tree level whose per-entry coverage equals the
// superpage size, or -1.
func (t *Table) levelForSize(size addr.Size) int {
	for lvl, cov := range t.coverage {
		if cov == size.Pages() {
			return lvl
		}
	}
	return -1
}

// IntermediateSizes lists the superpage sizes representable at
// intermediate nodes — the limited menu §4.2 criticizes.
func (t *Table) IntermediateSizes() []addr.Size {
	var out []addr.Size
	for lvl := 0; lvl < len(t.coverage)-1; lvl++ {
		pages := t.coverage[lvl]
		if pages == 1 || bits.Len64(pages)-1+addr.BasePageShift > 40 {
			continue
		}
		out = append(out, addr.Size(pages*addr.BasePageSize))
	}
	return out
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

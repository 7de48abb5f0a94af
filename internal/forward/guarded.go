package forward

import (
	"fmt"
	"sync"

	"clusterpt/internal/addr"
	"clusterpt/internal/memcost"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/ptalloc"
	"clusterpt/internal/pte"
)

// Guarded implements guarded page tables [Lied95], the short-circuit
// technique §2 cites for forward-mapped trees: every node entry carries a
// guard — a bit string that must match the next address bits — letting a
// single entry skip the chain of one-child intermediate nodes a sparse
// 64-bit space otherwise produces. §2's verdict is that such techniques
// are "partially effective but still require many levels"; this
// implementation exists to quantify that: lookups cost one cache line per
// *populated* level after path compression, which beats the fixed
// seven-level walk on sparse spaces but still loses to hashing.
//
// The tree is binary-radix at heart but consumes guardBits address bits
// per step after the guard match, so a lookup costs
// O(populated levels), with aggressive compression for isolated regions.
type Guarded struct {
	cfg GuardedConfig

	mu      sync.RWMutex
	root    *gnode
	nNodes  uint64
	nMapped uint64
	stats   pagetable.Counters

	nodes   *ptalloc.Arena[gnode]
	entries *ptalloc.SliceArena[gentry]
}

// GuardedConfig parameterizes a guarded page table.
type GuardedConfig struct {
	// IndexBits is the table size of each node: each step consumes
	// IndexBits address bits after the guard (default 4 → 16-entry
	// nodes).
	IndexBits uint
	// CostModel sets cache-line geometry; zero means 256-byte lines.
	CostModel memcost.Model
}

func (c *GuardedConfig) fill() error {
	if c.IndexBits == 0 {
		c.IndexBits = 4
	}
	// Guards are kept quantized to the index width so any two distinct
	// addresses can always be separated by a split; that requires the
	// index width to divide the VPN width (52 = 4·13).
	if c.IndexBits == 0 || addr.VPNBits%c.IndexBits != 0 || c.IndexBits > 13 {
		return fmt.Errorf("forward: guarded index bits %d must divide %d", c.IndexBits, addr.VPNBits)
	}
	if c.CostModel.LineSize == 0 {
		c.CostModel = memcost.NewModel(0)
	}
	return nil
}

// gnode is one guarded-table node: a small array of entries, each with a
// guard string and either a child or a PTE. Entry arrays come from the
// table's gentry slice arena (1<<IndexBits is a power of two, so the
// size-class run is exact); guarded tables never prune, so the handles
// only matter for Reset.
type gnode struct {
	entries []gentry
	count   int
	h       ptalloc.Handle
	eh      ptalloc.Handle
}

// gentry is one slot: the guard is the address-bit string (guardLen
// bits, most significant first) that must match before the entry
// applies.
type gentry struct {
	used     bool
	guard    uint64
	guardLen uint
	child    *gnode
	word     pte.Word
}

// NewGuarded creates a guarded page table.
func NewGuarded(cfg GuardedConfig) (*Guarded, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	g := &Guarded{
		cfg:     cfg,
		nodes:   ptalloc.NewArena[gnode](),
		entries: ptalloc.NewSliceArena[gentry](),
	}
	g.root = g.newNode()
	return g, nil
}

// MustNewGuarded is NewGuarded for known-good configurations.
func MustNewGuarded(cfg GuardedConfig) *Guarded {
	g, err := NewGuarded(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

func (g *Guarded) newNode() *gnode {
	g.nNodes++
	h, nd := g.nodes.Alloc()
	nd.h = h
	nd.eh, nd.entries = g.entries.Alloc(1 << g.cfg.IndexBits)
	return nd
}

// Name implements pagetable.PageTable.
func (g *Guarded) Name() string { return "forward-guarded" }

// key returns the VPN as a left-aligned bit string of VPNBits bits.
type bitstr struct {
	bits uint64 // left-aligned in the low VPNBits
	len  uint
}

func vpnBits(vpn addr.VPN) bitstr {
	return bitstr{bits: uint64(vpn), len: addr.VPNBits}
}

// take removes the top n bits.
func (b *bitstr) take(n uint) uint64 {
	if n > b.len {
		panic("forward: bitstr underflow")
	}
	v := b.bits >> (b.len - n)
	b.bits &= 1<<(b.len-n) - 1
	b.len -= n
	return v
}

// Lookup implements pagetable.PageTable: descend matching guards, one
// cache line per node visited.
func (g *Guarded) Lookup(va addr.V) (pte.Entry, pagetable.WalkCost, bool) {
	vpn := addr.VPNOf(va)
	g.mu.RLock()
	e, cost, ok := g.lookupLocked(vpn)
	g.mu.RUnlock()
	g.stats.NoteLookup(ok)
	return e, cost, ok
}

func (g *Guarded) lookupLocked(vpn addr.VPN) (pte.Entry, pagetable.WalkCost, bool) {
	var cost pagetable.WalkCost
	cost.Probes = 1
	rest := vpnBits(vpn)
	nd := g.root
	for {
		cost.Nodes++
		cost.Lines++ // one entry read per node
		if rest.len < g.cfg.IndexBits {
			return pte.Entry{}, cost, false
		}
		ent := &nd.entries[rest.take(g.cfg.IndexBits)]
		if !ent.used {
			return pte.Entry{}, cost, false
		}
		// Guard match: the next guardLen bits must equal the guard.
		if ent.guardLen > rest.len || rest.take(ent.guardLen) != ent.guard {
			return pte.Entry{}, cost, false
		}
		if ent.child == nil {
			if rest.len != 0 || !ent.word.Valid() {
				return pte.Entry{}, cost, false
			}
			return pte.EntryFromWord(ent.word, vpn, 0), cost, true
		}
		nd = ent.child
	}
}

// Map implements pagetable.PageTable. Insertion either lands in an empty
// slot (storing the whole remaining address as the guard — maximal
// compression), or splits an existing entry's guard at the first
// disagreement, growing the tree only where two mappings actually
// diverge.
func (g *Guarded) Map(vpn addr.VPN, ppn addr.PPN, attr pte.Attr) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.insert(g.root, vpnBits(vpn), pte.MakeBase(ppn, attr)); err != nil {
		return err
	}
	g.nMapped++
	g.stats.NoteInsert()
	return nil
}

// insert descends the tree, splitting guards where the new address
// diverges from an existing path. Invariant: at any node, every entry's
// guard length equals the remaining address length minus the index width
// of its subtree steps, and all guard lengths are multiples of
// IndexBits — so a split point always exists.
func (g *Guarded) insert(nd *gnode, rest bitstr, w pte.Word) error {
	for {
		idx := rest.take(g.cfg.IndexBits)
		ent := &nd.entries[idx]
		if !ent.used {
			// Whole remainder becomes the guard: maximal compression.
			ent.used = true
			ent.guard = rest.bits
			ent.guardLen = rest.len
			ent.word = w
			nd.count++
			return nil
		}
		common := commonPrefix(ent.guard, ent.guardLen, rest.bits, rest.len)
		if common == ent.guardLen {
			if ent.child != nil {
				// Interior entry fully matched: descend.
				rest.take(common)
				nd = ent.child
				continue
			}
			// Leaf entry: guards at one node always have equal length
			// (both paths consumed the same bits), so a full match is an
			// exact address match.
			if ent.word.Valid() {
				return pagetable.ErrAlreadyMapped
			}
			ent.word = w
			return nil
		}
		// Divergence inside the guard: split it at the largest
		// IndexBits-quantized point not past the divergence, push the
		// old content into a fresh child, then loop to insert into it.
		q := common &^ (g.cfg.IndexBits - 1)
		g.splitEntry(ent, q)
		rest.take(q)
		nd = ent.child
	}
}

// splitEntry rewrites ent so its guard is the first q bits (q a multiple
// of IndexBits, q ≤ guardLen−IndexBits) and its child is a new node
// holding the old content one level down.
func (g *Guarded) splitEntry(ent *gentry, q uint) {
	oldGuard, oldLen := ent.guard, ent.guardLen
	oldChild, oldWord := ent.child, ent.word

	sub := bitstr{bits: oldGuard & (1<<(oldLen-q) - 1), len: oldLen - q}
	child := g.newNode()
	idx := sub.take(g.cfg.IndexBits)
	child.entries[idx] = gentry{
		used:     true,
		guard:    sub.bits,
		guardLen: sub.len,
		child:    oldChild,
		word:     oldWord,
	}
	child.count = 1

	ent.guard = oldGuard >> (oldLen - q)
	ent.guardLen = q
	ent.child = child
	ent.word = pte.Invalid
}

// commonPrefix returns the length of the longest common prefix of two
// left-aligned bit strings.
func commonPrefix(a uint64, aLen uint, b uint64, bLen uint) uint {
	n := aLen
	if bLen < n {
		n = bLen
	}
	var i uint
	for i = 0; i < n; i++ {
		abit := a >> (aLen - 1 - i) & 1
		bbit := b >> (bLen - 1 - i) & 1
		if abit != bbit {
			break
		}
	}
	return i
}

// Unmap implements pagetable.PageTable (no path re-compression; freed
// slots are reused by later inserts).
func (g *Guarded) Unmap(vpn addr.VPN) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	rest := vpnBits(vpn)
	nd := g.root
	for {
		if rest.len < g.cfg.IndexBits {
			return pagetable.ErrNotMapped
		}
		ent := &nd.entries[rest.take(g.cfg.IndexBits)]
		if !ent.used || ent.guardLen > rest.len || rest.take(ent.guardLen) != ent.guard {
			return pagetable.ErrNotMapped
		}
		if ent.child == nil {
			if rest.len != 0 || !ent.word.Valid() {
				return pagetable.ErrNotMapped
			}
			ent.used = false
			ent.word = pte.Invalid
			nd.count--
			g.nMapped--
			g.stats.NoteRemove()
			return nil
		}
		nd = ent.child
	}
}

// ProtectRange implements pagetable.PageTable: one descent per page.
func (g *Guarded) ProtectRange(r addr.Range, set, clear pte.Attr) (pagetable.WalkCost, error) {
	var cost pagetable.WalkCost
	g.mu.Lock()
	defer g.mu.Unlock()
	r.Pages(func(vpn addr.VPN) bool {
		cost.Probes++
		rest := vpnBits(vpn)
		nd := g.root
		for {
			cost.Nodes++
			if rest.len < g.cfg.IndexBits {
				return true
			}
			ent := &nd.entries[rest.take(g.cfg.IndexBits)]
			if !ent.used || ent.guardLen > rest.len || rest.take(ent.guardLen) != ent.guard {
				return true
			}
			if ent.child == nil {
				if rest.len == 0 && ent.word.Valid() {
					ent.word = ent.word.WithAttr(ent.word.Attr()&^clear | set)
				}
				return true
			}
			nd = ent.child
		}
	})
	return cost, nil
}

// Size implements pagetable.PageTable: nodes × entries × 16 bytes (a
// guarded entry needs the pointer/PTE plus the guard word).
func (g *Guarded) Size() pagetable.Size {
	g.mu.RLock()
	defer g.mu.RUnlock()
	entryBytes := uint64(16)
	return pagetable.Size{
		PTEBytes: g.nNodes * uint64(1<<g.cfg.IndexBits) * entryBytes,
		Nodes:    g.nNodes,
		Mappings: g.nMapped,
	}
}

// Stats implements pagetable.PageTable.
func (g *Guarded) Stats() pagetable.Stats {
	return g.stats.Snapshot()
}

// MemStats implements pagetable.MemReporter. The analytical Size()
// charges 16 bytes per entry; the Go gentry struct is 40, a fixed
// factor the measurement tests account for.
func (g *Guarded) MemStats() pagetable.MemStats {
	return pagetable.MemStats{Nodes: g.nodes.Stats(), Payload: g.entries.Stats()}
}

// Reset implements pagetable.Resetter.
func (g *Guarded) Reset() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.nodes.Reset()
	g.entries.Reset()
	g.nNodes = 0
	g.root = g.newNode()
	g.nMapped = 0
	g.stats.Reset()
}

// Depth reports the tree depth a lookup of vpn would traverse (0 if
// unmapped) — the quantity the §2 ablation compares against the fixed
// seven-level walk.
func (g *Guarded) Depth(vpn addr.VPN) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, cost, ok := g.lookupLocked(vpn)
	if !ok {
		return 0
	}
	return cost.Nodes
}

var (
	_ pagetable.PageTable   = (*Guarded)(nil)
	_ pagetable.MemReporter = (*Guarded)(nil)
	_ pagetable.Resetter    = (*Guarded)(nil)
)

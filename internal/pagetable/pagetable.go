// Package pagetable defines the interface shared by every page-table
// organization in this repository — linear, forward-mapped, hashed,
// clustered and their variants — together with the walk-cost and size
// accounting the paper's evaluation (§6) is built on.
package pagetable

import (
	"errors"

	"clusterpt/internal/addr"
	"clusterpt/internal/pte"
)

// Errors returned by page-table operations. Organizations return
// ErrNotMapped and ErrAlreadyMapped bare, never wrapped: racing writers
// expect them, and the bare sentinel costs no allocation. A caller that
// surfaces one adds the page it was about.
var (
	// ErrNotMapped reports a lookup or unmap of an unmapped page.
	ErrNotMapped = errors.New("pagetable: page not mapped")
	// ErrAlreadyMapped reports a conflicting map of an occupied page.
	ErrAlreadyMapped = errors.New("pagetable: page already mapped")
	// ErrMisaligned reports a superpage or block operation on an address
	// that is not aligned to the page or block size.
	ErrMisaligned = errors.New("pagetable: misaligned address")
	// ErrUnsupported reports an operation the organization cannot
	// represent (e.g. partial-subblock PTEs in a linear page table).
	ErrUnsupported = errors.New("pagetable: operation unsupported by this organization")
)

// WalkCost records what one page-table walk touched. Lines is the paper's
// Figure 11 metric.
type WalkCost struct {
	// Lines is the number of distinct cache lines accessed.
	Lines int
	// Nodes is the number of page-table nodes (hash nodes or tree levels)
	// visited.
	Nodes int
	// Probes is the number of separate table probes; >1 only for
	// multiple-page-table organizations (§4.2) and subblock prefetch
	// gather loops (§4.4).
	Probes int
	// NestedMiss reports that a linear page table took a nested TLB miss
	// on the virtual access to the page table itself.
	NestedMiss bool
}

// Add accumulates another walk's cost (used when one logical miss needs
// several probes).
func (c *WalkCost) Add(o WalkCost) {
	c.Lines += o.Lines
	c.Nodes += o.Nodes
	c.Probes += o.Probes
	c.NestedMiss = c.NestedMiss || o.NestedMiss
}

// Size reports page-table memory use. The paper's Figure 9/10 accounting
// charges only PTE memory (e.g. 24 bytes per hashed PTE, 8s+16 per
// clustered PTE, 4KB per populated linear page-table page); fixed
// structures such as hash bucket arrays are reported separately so both
// accountings are available.
type Size struct {
	// PTEBytes is PTE memory under the paper's accounting.
	PTEBytes uint64
	// FixedBytes is memory for fixed structures (bucket arrays, root
	// nodes) excluded from the paper's normalization.
	FixedBytes uint64
	// Nodes is the number of allocated PTE nodes or page-table pages.
	Nodes uint64
	// Mappings is the number of valid base-page translations represented.
	Mappings uint64
}

// Total returns all memory charged to the table.
func (s Size) Total() uint64 { return s.PTEBytes + s.FixedBytes }

// Stats counts page-table operations for reporting.
type Stats struct {
	Lookups     uint64
	LookupFails uint64
	Inserts     uint64
	Removes     uint64
}

// PageTable is the operation set every organization supports. All
// addresses are in one 64-bit address space; multi-process workloads use
// one table per process (§7 discusses the shared-table alternative).
type PageTable interface {
	// Name identifies the organization in reports.
	Name() string

	// Lookup services a TLB miss for va: it returns the covering
	// translation and the cost of the walk. ok is false on a page fault
	// (no covering mapping), in which case the cost still reflects the
	// failed search.
	Lookup(va addr.V) (e pte.Entry, cost WalkCost, ok bool)

	// Map installs a base-page translation.
	Map(vpn addr.VPN, ppn addr.PPN, attr pte.Attr) error

	// Unmap removes the translation covering vpn. Unmapping a base page
	// covered by a superpage or partial-subblock PTE demotes or shrinks
	// that PTE as the organization allows.
	Unmap(vpn addr.VPN) error

	// ProtectRange applies attribute bits to every mapping in r,
	// returning the number of hash probes / node visits the operation
	// needed (the §3.1 range-operation cost).
	ProtectRange(r addr.Range, set, clear pte.Attr) (WalkCost, error)

	// Size reports current memory use.
	Size() Size

	// Stats reports operation counts.
	Stats() Stats
}

// SuperpageMapper is implemented by organizations that can store
// superpage PTEs (§4.2, §5).
type SuperpageMapper interface {
	// MapSuperpage installs a superpage translation. vpn and ppn must be
	// size-aligned.
	MapSuperpage(vpn addr.VPN, ppn addr.PPN, attr pte.Attr, size addr.Size) error
}

// PartialMapper is implemented by organizations that can store
// partial-subblock PTEs (§4.3, §5).
type PartialMapper interface {
	// MapPartial installs a partial-subblock translation for the page
	// block vpbn: basePPN is the first frame of the properly-placed frame
	// block and valid the resident-subblock vector.
	MapPartial(vpbn addr.VPBN, basePPN addr.PPN, attr pte.Attr, valid uint16) error
	// LogSBF returns log2 of the subblock factor: the block geometry in
	// which MapPartial reads vpbn and valid.
	LogSBF() uint
}

// UpperWalker is implemented by organizations whose walk descends fixed
// upper levels before the leaf access — the structure a page-walk cache
// can memoize (§4.2's tree walks; hashed tables have no upper levels
// and never implement it). The cost covers only the upper levels: what
// a walk-cache hit elides, leaving the leaf access behind.
type UpperWalker interface {
	// UpperWalkCost returns the cost of the upper-level portion of a
	// walk to vpn. It is a constant of the table's configuration for
	// every table in this repository, which is what lets sharded replay
	// lanes apply it as pure arithmetic.
	UpperWalkCost(vpn addr.VPN) WalkCost
}

// BlockReader is implemented by organizations that can gather all base
// mappings of one page block, used by complete-subblock TLB prefetch
// (§4.4). The cost reflects how the organization stores neighboring PTEs:
// one node for clustered tables, adjacent memory for linear and
// forward-mapped tables, one probe per base page for hashed tables.
//
// The gather is append-style so the replay hot path can reuse one
// buffer per stage instead of allocating a slice per block miss.
type BlockReader interface {
	// AppendBlock appends the valid translations within page block vpbn
	// (subblock factor 1<<logSBF) to dst and returns the extended slice
	// and the cost of gathering them. dst[:len(dst)] is never modified.
	// ok reports that at least one entry was appended; it is false if no
	// page in the block is mapped.
	AppendBlock(dst []pte.Entry, vpbn addr.VPBN, logSBF uint) (entries []pte.Entry, cost WalkCost, ok bool)

	// LookupBlock is AppendBlock into a nil buffer: it returns a freshly
	// allocated slice of the block's translations.
	LookupBlock(vpbn addr.VPBN, logSBF uint) (entries []pte.Entry, cost WalkCost, ok bool)
}

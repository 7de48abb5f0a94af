package hashed

import (
	"fmt"
	"sync"

	"clusterpt/internal/addr"
	"clusterpt/internal/memcost"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/ptalloc"
	"clusterpt/internal/pte"
)

// InvertedTable is the classic inverted page table of §2 (IBM System/38
// style): one PTE per physical frame, chained through the frame array,
// with a hash anchor table of frame indices. Hashing dereferences the
// anchor to reach the first element of the bucket, costing one extra
// memory access per miss relative to an open hash table whose bucket
// array holds the first PTEs inline. Its size is proportional to physical
// memory, not to the mapped virtual footprint.
type InvertedTable struct {
	cfg    Config
	frames int

	mu sync.RWMutex
	// anchors is the fixed hash anchor table (the bucket-array analog);
	// entries is the frame array, carved exact-size out of the arena so
	// its measured bytes match the frames*24 the model charges.
	anchors  []int32 // hash → frame index, -1 empty
	entries  []invEntry
	entriesH ptalloc.Handle
	arena    *ptalloc.SliceArena[invEntry]
	stats    pagetable.Counters
	nMapped  uint64
}

type invEntry struct {
	vpn  addr.VPN
	next int32 // chain through the frame array, -1 end
	word pte.Word
}

// invEntryBytes: 8-byte tag + 4-byte next (frame indices are small) + 8-byte
// mapping word, rounded to 8-byte alignment.
const invEntryBytes = 24

// NewInverted creates an inverted page table covering the given number of
// physical frames.
func NewInverted(cfg Config, frames int) (*InvertedTable, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if frames <= 0 {
		return nil, fmt.Errorf("hashed: inverted table needs frames > 0")
	}
	t := &InvertedTable{
		cfg:     cfg,
		frames:  frames,
		anchors: make([]int32, cfg.Buckets),
		arena:   ptalloc.NewSliceArena[invEntry](),
	}
	t.initLocked()
	return t, nil
}

// initLocked (re)allocates the frame array from the arena and clears
// the anchor table. Caller holds the write lock or is the constructor.
func (t *InvertedTable) initLocked() {
	t.entriesH, t.entries = t.arena.AllocExact(t.frames)
	for i := range t.anchors {
		t.anchors[i] = -1
	}
	for i := range t.entries {
		t.entries[i].next = -1
	}
}

// MustNewInverted is NewInverted for known-good configurations.
func MustNewInverted(cfg Config, frames int) *InvertedTable {
	t, err := NewInverted(cfg, frames)
	if err != nil {
		panic(err)
	}
	return t
}

// Name implements pagetable.PageTable.
func (t *InvertedTable) Name() string { return "inverted" }

func (t *InvertedTable) anchorFor(vpn addr.VPN) int {
	return pagetable.BucketIndex(pagetable.HashVPN(uint64(vpn)), t.cfg.Buckets)
}

// Lookup implements pagetable.PageTable: anchor dereference plus chain
// walk through the frame array.
func (t *InvertedTable) Lookup(va addr.V) (pte.Entry, pagetable.WalkCost, bool) {
	vpn := addr.VPNOf(va)
	t.mu.RLock()
	var meter memcost.Meter
	cost := pagetable.WalkCost{Probes: 1}
	// The anchor table access is one line.
	meter.AddLines(1)
	var e pte.Entry
	ok := false
	for idx := t.anchors[t.anchorFor(vpn)]; idx >= 0; idx = t.entries[idx].next {
		cost.Nodes++
		meter.Touch(t.cfg.CostModel, [2]int{0, invEntryBytes})
		ent := &t.entries[idx]
		if ent.word.Valid() && ent.vpn == vpn {
			e, ok = pte.EntryFromWord(ent.word, vpn, 0), true
			break
		}
	}
	cost.Lines = meter.Lines()
	t.mu.RUnlock()

	t.stats.NoteLookup(ok)
	return e, cost, ok
}

// Map implements pagetable.PageTable. The PTE lives at the frame's slot,
// so each frame can map at most one virtual page — the defining inverted-
// table constraint (no aliasing).
func (t *InvertedTable) Map(vpn addr.VPN, ppn addr.PPN, attr pte.Attr) error {
	if int(ppn) >= t.frames {
		return fmt.Errorf("hashed: frame %#x beyond inverted table (%d frames)", uint64(ppn), t.frames)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ent := &t.entries[ppn]
	if ent.word.Valid() {
		return pagetable.ErrAlreadyMapped
	}
	// Reject a second mapping of the same VPN.
	a := t.anchorFor(vpn)
	for idx := t.anchors[a]; idx >= 0; idx = t.entries[idx].next {
		if e := &t.entries[idx]; e.word.Valid() && e.vpn == vpn {
			return pagetable.ErrAlreadyMapped
		}
	}
	ent.vpn = vpn
	ent.word = pte.MakeBase(ppn, attr)
	ent.next = t.anchors[a]
	t.anchors[a] = int32(ppn)
	t.nMapped++
	t.stats.NoteInsert()
	return nil
}

// Unmap implements pagetable.PageTable.
func (t *InvertedTable) Unmap(vpn addr.VPN) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.anchorFor(vpn)
	prev := int32(-1)
	for idx := t.anchors[a]; idx >= 0; idx = t.entries[idx].next {
		ent := &t.entries[idx]
		if ent.word.Valid() && ent.vpn == vpn {
			if prev < 0 {
				t.anchors[a] = ent.next
			} else {
				t.entries[prev].next = ent.next
			}
			*ent = invEntry{next: -1}
			t.nMapped--
			t.stats.NoteRemove()
			return nil
		}
		prev = idx
	}
	return pagetable.ErrNotMapped
}

// ProtectRange implements pagetable.PageTable: one probe per base page,
// like any hashed organization.
func (t *InvertedTable) ProtectRange(r addr.Range, set, clear pte.Attr) (pagetable.WalkCost, error) {
	var cost pagetable.WalkCost
	t.mu.Lock()
	defer t.mu.Unlock()
	r.Pages(func(vpn addr.VPN) bool {
		cost.Probes++
		for idx := t.anchors[t.anchorFor(vpn)]; idx >= 0; idx = t.entries[idx].next {
			cost.Nodes++
			ent := &t.entries[idx]
			if ent.word.Valid() && ent.vpn == vpn {
				ent.word = ent.word.WithAttr(ent.word.Attr()&^clear | set)
				break
			}
		}
		return true
	})
	return cost, nil
}

// Size implements pagetable.PageTable. The whole frame array exists
// regardless of how much is mapped; that is the organization's fixed
// cost, proportional to physical memory.
func (t *InvertedTable) Size() pagetable.Size {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return pagetable.Size{
		PTEBytes:   t.nMapped * invEntryBytes,
		FixedBytes: uint64(t.frames-int(t.nMapped))*invEntryBytes + uint64(t.cfg.Buckets)*4,
		Nodes:      t.nMapped,
		Mappings:   t.nMapped,
	}
}

// Stats implements pagetable.PageTable.
func (t *InvertedTable) Stats() pagetable.Stats {
	return t.stats.Snapshot()
}

// MemStats implements pagetable.MemReporter. The frame array is the
// table's only growable storage; it is allocated exact-size, so
// Payload.LiveBytes is frames * sizeof(invEntry) — the mapped and
// unmapped portions of the model's PTEBytes+FixedBytes split combined.
func (t *InvertedTable) MemStats() pagetable.MemStats {
	return pagetable.MemStats{Payload: t.arena.Stats()}
}

// Reset implements pagetable.Resetter: the frame array is dropped via
// arena reset and re-carved (the arena retains the buffer, so no new
// allocation happens), then reinitialized.
func (t *InvertedTable) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.arena.Reset()
	t.initLocked()
	t.nMapped = 0
	t.stats.Reset()
}

// ReverseLookup returns the virtual page mapped to a frame — the
// operation inverted tables exist to make O(1), used by page-replacement
// daemons.
func (t *InvertedTable) ReverseLookup(ppn addr.PPN) (addr.VPN, bool) {
	if int(ppn) >= t.frames {
		return 0, false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	ent := &t.entries[ppn]
	if !ent.word.Valid() {
		return 0, false
	}
	return ent.vpn, true
}

var (
	_ pagetable.PageTable   = (*InvertedTable)(nil)
	_ pagetable.MemReporter = (*InvertedTable)(nil)
	_ pagetable.Resetter    = (*InvertedTable)(nil)
)

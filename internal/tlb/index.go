package tlb

import (
	"math/bits"

	"clusterpt/internal/addr"
)

// tlbIndex is a hash index over the resident tags of a TLB: one probe
// table per size class from masked VPN to slot, plus one probe table
// from VPBN to slot for the subblock formats. It makes Access/Translate
// O(resident size classes) instead of O(entries) while answering
// exactly the lowest covering slot in slot order — including on
// duplicate tags.
//
// Exactness argument (also DESIGN.md §9): within one size class every
// entry keyed by the same masked VPN covers exactly the same addresses,
// so the lowest slot holding a key is the class's unique candidate. For
// block formats all same-VPBN entries share a tag but may differ in
// valid mask, so the lowest slot is the candidate only when its mask
// bit is set; otherwise (duplicate VPBNs with differing masks — rare,
// only reachable through redundant inserts) the index falls back to a
// slot-order scan among the duplicates. The final answer is the lowest
// slot over all per-class candidates.
//
// Each table is a fixed open-addressed array (probeTable) of at least
// slotsPerEntry slots per TLB entry. Every key a table holds belongs to
// at least one valid slot, so a table never holds more than Entries
// keys and its load factor never exceeds 1/slotsPerEntry: no table
// grows, rehashes or allocates after it is made.
type tlbIndex struct {
	logSBF uint
	// entries is the TLB's entry count, which sizes every table.
	entries int
	// classes[i] indexes the size class whose entries cover 1<<shifts[i]
	// base pages: fSingle and one-page fSpan entries land in shift 0,
	// larger fSpan entries in shift log2(size.Pages()). A class's table
	// is made on first use; the slice is append-only per TLB lifetime
	// (bounded by the supported page sizes).
	shifts  []uint8
	classes []probeTable
	// blocks indexes fPSB and fCSB entries by VPBN.
	blocks probeTable
}

// slotRef tracks the slots holding one key: the lowest such slot and
// how many there are. Duplicates carry no slot list — removal of a
// duplicated minimum rescans the entry array, which only redundant
// insert streams can trigger.
type slotRef struct {
	min int32
	n   int32
}

func newIndex(entries int, logSBF uint) *tlbIndex {
	return &tlbIndex{
		logSBF:  logSBF,
		entries: entries,
		blocks:  newProbeTable(entries),
	}
}

// entryShift returns the size class of a single/span entry.
func entryShift(e *entry) uint8 {
	if e.format == fSingle {
		return 0
	}
	return uint8(bits.TrailingZeros64(e.size.Pages()))
}

// class returns the table for a size class, making it on first use.
func (ix *tlbIndex) class(sh uint8) *probeTable {
	for i, s := range ix.shifts {
		if s == sh {
			return &ix.classes[i]
		}
	}
	ix.shifts = append(ix.shifts, sh)
	ix.classes = append(ix.classes, newProbeTable(ix.entries))
	return &ix.classes[len(ix.classes)-1]
}

// table returns the table and key that index e.
func (ix *tlbIndex) table(e *entry) (*probeTable, uint64) {
	if e.format == fPSB || e.format == fCSB {
		return &ix.blocks, uint64(e.vpbn)
	}
	return ix.class(entryShift(e)), uint64(e.vpn)
}

// sameTag reports whether o is a valid entry indexed under e's key.
func sameTag(o, e *entry) bool {
	if !o.valid {
		return false
	}
	if e.format == fPSB || e.format == fCSB {
		return (o.format == fPSB || o.format == fCSB) && o.vpbn == e.vpbn
	}
	return (o.format == fSingle || o.format == fSpan) &&
		entryShift(o) == entryShift(e) && o.vpn == e.vpn
}

// add registers entries[slot], which must already hold its new contents.
func (ix *tlbIndex) add(e *entry, slot int32) {
	p, key := ix.table(e)
	p.add(key, slot)
}

// remove unregisters the old contents of entries[slot] before it is
// overwritten or invalidated. entries is needed to re-find the lowest
// duplicate when the minimum of a duplicated key departs.
func (ix *tlbIndex) remove(e *entry, slot int32, entries []entry) {
	p, key := ix.table(e)
	i := p.find(key)
	if i < 0 {
		return
	}
	ref := &p.slots[i].ref
	if ref.n == 1 {
		p.deleteAt(i)
		return
	}
	ref.n--
	if ref.min == slot {
		// The departing slot was the lowest duplicate: rescan upward for
		// the next one. O(entries), reachable only via redundant inserts.
		for j := slot + 1; ; j++ {
			if sameTag(&entries[j], e) {
				ref.min = j
				break
			}
		}
	}
}

// lookup returns the lowest slot covering vpn, or -1.
func (ix *tlbIndex) lookup(vpn addr.VPN, entries []entry) int32 {
	best := int32(-1)
	for i, sh := range ix.shifts {
		key := uint64(vpn &^ (addr.VPN(1)<<sh - 1))
		if ref := ix.classes[i].get(key); ref.n > 0 && (best < 0 || ref.min < best) {
			best = ref.min
		}
	}
	if ix.blocks.keys > 0 {
		vpbn, boff := addr.BlockSplit(vpn, ix.logSBF)
		if ref := ix.blocks.get(uint64(vpbn)); ref.n > 0 {
			if entries[ref.min].mask>>boff&1 == 1 {
				if best < 0 || ref.min < best {
					best = ref.min
				}
			} else if ref.n > 1 {
				// Duplicate VPBNs with differing masks: take the first
				// covering duplicate in slot order.
				for i := ref.min + 1; i < int32(len(entries)); i++ {
					o := &entries[i]
					if o.valid && (o.format == fPSB || o.format == fCSB) &&
						o.vpbn == vpbn && o.mask>>boff&1 == 1 {
						if best < 0 || i < best {
							best = i
						}
						break
					}
				}
			}
		}
	}
	return best
}

// lookupBlock returns the lowest slot whose block tag matches vpbn
// regardless of mask, or -1.
func (ix *tlbIndex) lookupBlock(vpbn addr.VPBN) int32 {
	if ref := ix.blocks.get(uint64(vpbn)); ref.n > 0 {
		return ref.min
	}
	return -1
}

// clear empties the index (Flush).
func (ix *tlbIndex) clear() {
	for i := range ix.classes {
		ix.classes[i].clear()
	}
	ix.blocks.clear()
}

// probeTable is a fixed open-addressed hash table from a 64-bit key to
// its slotRef: linear probing from a multiplicative hash, and
// backward-shift deletion, so no tombstones build up and the table
// never rehashes. Its owner keeps the key count at most a quarter of
// the array, so every probe run ends at an empty slot.
type probeTable struct {
	slots []probeSlot
	// shift is 64 - log2(len(slots)): the hash keeps the top bits of
	// the key's product with hashMul.
	shift uint8
	// keys counts the occupied slots.
	keys int32
}

// probeSlot is one array position. Key 0 (VPN 0, VPBN 0) is a legal
// key, so emptiness is marked by ref.n == 0.
type probeSlot struct {
	key uint64
	ref slotRef
}

// slotsPerEntry sizes a probe table: the smallest power of two of at
// least slotsPerEntry×Entries slots, so the load factor stays at or
// below ¼. On Figure11Replay/e64 a ½ load ran about 11% slower, from
// longer probe runs on every miss, lookup and deletion, and a ⅛ load
// was no faster; the price is 64 B per TLB entry per table.
const slotsPerEntry = 4

// hashMul is 2^64 divided by the golden ratio (Fibonacci hashing). A
// plain key&mask would send every superpage-class key — whose low bits
// are zero — to slot 0; the product's top bits mix all key bits.
const hashMul = 0x9E3779B97F4A7C15

// newProbeTable makes a table for a TLB of the given entry count.
func newProbeTable(entries int) probeTable {
	size := 2
	for size < slotsPerEntry*entries {
		size <<= 1
	}
	return probeTable{
		slots: make([]probeSlot, size),
		shift: uint8(64 - bits.TrailingZeros(uint(size))),
	}
}

// home returns key's first probe position.
func (p *probeTable) home(key uint64) int { return int(key * hashMul >> p.shift) }

// get returns key's ref, or the zero slotRef (n == 0) if key is absent.
func (p *probeTable) get(key uint64) slotRef {
	if i := p.find(key); i >= 0 {
		return p.slots[i].ref
	}
	return slotRef{}
}

// find returns the position holding key, or -1.
func (p *probeTable) find(key uint64) int {
	mask := len(p.slots) - 1
	for i := p.home(key); ; i = (i + 1) & mask {
		s := &p.slots[i]
		if s.ref.n == 0 {
			return -1
		}
		if s.key == key {
			return i
		}
	}
}

// add records that slot holds key.
func (p *probeTable) add(key uint64, slot int32) {
	mask := len(p.slots) - 1
	for i := p.home(key); ; i = (i + 1) & mask {
		s := &p.slots[i]
		if s.ref.n == 0 {
			s.key, s.ref = key, slotRef{min: slot, n: 1}
			p.keys++
			return
		}
		if s.key == key {
			s.ref.min = min(s.ref.min, slot)
			s.ref.n++
			return
		}
	}
}

// deleteAt empties position i, then walks the rest of its probe run and
// shifts back into the hole every key whose home does not lie
// cyclically in (hole, its position] — exactly the keys a later probe
// would otherwise fail to reach across the hole.
func (p *probeTable) deleteAt(i int) {
	mask := len(p.slots) - 1
	for j := (i + 1) & mask; p.slots[j].ref.n != 0; j = (j + 1) & mask {
		if (j-p.home(p.slots[j].key))&mask >= (j-i)&mask {
			p.slots[i] = p.slots[j]
			i = j
		}
	}
	p.slots[i] = probeSlot{}
	p.keys--
}

// clear empties the table; a table that holds no keys is left alone.
func (p *probeTable) clear() {
	if p.keys > 0 {
		clear(p.slots)
		p.keys = 0
	}
}

package tlb

import (
	"math/bits"

	"clusterpt/internal/addr"
)

// tlbIndex is a hash index over the resident tags of a TLB: one map per
// size class from masked VPN to slot, plus one map from VPBN to slot for
// the subblock formats. It makes Access/Translate O(resident size
// classes) instead of O(entries) while answering exactly the lowest
// covering slot in slot order — including on duplicate tags.
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
type tlbIndex struct {
	logSBF uint
	// classes[i] indexes the size class whose entries cover 1<<shifts[i]
	// base pages: fSingle and one-page fSpan entries land in shift 0,
	// larger fSpan entries in shift log2(size.Pages()). The slice is
	// append-only per TLB lifetime (bounded by the supported page sizes)
	// so probing iterates no maps.
	shifts  []uint8
	classes []map[addr.VPN]slotRef
	// blocks indexes fPSB and fCSB entries by VPBN.
	blocks map[addr.VPBN]slotRef
}

// slotRef tracks the slots holding one key: the lowest such slot and
// how many there are. Duplicates carry no slot list — removal of a
// duplicated minimum rescans the entry array, which only redundant
// insert streams can trigger.
type slotRef struct {
	min int32
	n   int32
}

func newIndex(logSBF uint) *tlbIndex {
	return &tlbIndex{
		logSBF: logSBF,
		blocks: make(map[addr.VPBN]slotRef),
	}
}

// entryShift returns the size class of a single/span entry.
func entryShift(e *entry) uint8 {
	if e.format == fSingle {
		return 0
	}
	return uint8(bits.TrailingZeros64(e.size.Pages()))
}

// class returns the map for a size class, creating it on first use.
func (ix *tlbIndex) class(sh uint8) map[addr.VPN]slotRef {
	for i, s := range ix.shifts {
		if s == sh {
			return ix.classes[i]
		}
	}
	m := make(map[addr.VPN]slotRef)
	ix.shifts = append(ix.shifts, sh)
	ix.classes = append(ix.classes, m)
	return m
}

// add registers entries[slot], which must already hold its new contents.
func (ix *tlbIndex) add(e *entry, slot int32) {
	switch e.format {
	case fSingle, fSpan:
		addRef(ix.class(entryShift(e)), e.vpn, slot)
	case fPSB, fCSB:
		addRef(ix.blocks, e.vpbn, slot)
	}
}

// remove unregisters the old contents of entries[slot] before it is
// overwritten or invalidated. entries is needed to re-find the lowest
// duplicate when the minimum of a duplicated key departs.
func (ix *tlbIndex) remove(e *entry, slot int32, entries []entry) {
	switch e.format {
	case fSingle, fSpan:
		sh := entryShift(e)
		removeRef(ix.class(sh), e.vpn, slot, func(i int32) bool {
			o := &entries[i]
			return o.valid && (o.format == fSingle || o.format == fSpan) &&
				entryShift(o) == sh && o.vpn == e.vpn
		})
	case fPSB, fCSB:
		removeRef(ix.blocks, e.vpbn, slot, func(i int32) bool {
			o := &entries[i]
			return o.valid && (o.format == fPSB || o.format == fCSB) && o.vpbn == e.vpbn
		})
	}
}

func addRef[K comparable](m map[K]slotRef, key K, slot int32) {
	ref, ok := m[key]
	if !ok {
		m[key] = slotRef{min: slot, n: 1}
		return
	}
	if slot < ref.min {
		ref.min = slot
	}
	ref.n++
	m[key] = ref
}

// removeRef drops slot from key's ref; same reports whether another
// slot still holds the key (used to re-find the minimum).
func removeRef[K comparable](m map[K]slotRef, key K, slot int32, same func(int32) bool) {
	ref, ok := m[key]
	if !ok {
		return
	}
	if ref.n <= 1 {
		delete(m, key)
		return
	}
	ref.n--
	if ref.min == slot {
		// The departing slot was the lowest duplicate: rescan upward for
		// the next one. O(entries), reachable only via redundant inserts.
		for i := slot + 1; ; i++ {
			if same(i) {
				ref.min = i
				break
			}
		}
	}
	m[key] = ref
}

// lookup returns the lowest slot covering vpn, or -1.
func (ix *tlbIndex) lookup(vpn addr.VPN, entries []entry) int32 {
	best := int32(-1)
	for i, sh := range ix.shifts {
		key := vpn &^ (addr.VPN(1)<<sh - 1)
		if ref, ok := ix.classes[i][key]; ok && (best < 0 || ref.min < best) {
			best = ref.min
		}
	}
	if len(ix.blocks) > 0 {
		vpbn, boff := addr.BlockSplit(vpn, ix.logSBF)
		if ref, ok := ix.blocks[vpbn]; ok {
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
	if ref, ok := ix.blocks[vpbn]; ok {
		return ref.min
	}
	return -1
}

// clear empties the index (Flush).
func (ix *tlbIndex) clear() {
	for i := range ix.classes {
		clear(ix.classes[i])
	}
	clear(ix.blocks)
}

package pte

import (
	"fmt"

	"clusterpt/internal/addr"
)

// Word is an 8-byte mapping word. The bit layout follows Figures 1, 6 and
// 7 of the paper (little-endian bit numbering):
//
//	base mapping word (Figure 1):
//	  63    V
//	  62:42 PAD
//	  41:40 S = 0 (base)
//	  39:12 PPN (28 bits; 40-bit physical addresses with 4KB pages)
//	  11:0  ATTR
//
//	superpage mapping word (Figure 6 top, Figure 7 bottom):
//	  63    V
//	  62:59 SZ (power-of-two doublings above the 4KB base page)
//	  58:42 PAD
//	  41:40 S = 2 (superpage)
//	  39:12 PPN (low SZ bits unused: superpages are aligned)
//	  11:0  ATTR
//
//	partial-subblock mapping word (Figure 6 bottom, Figure 7 center):
//	  63:48 V16..V1 valid bit vector (subblock factor up to 16)
//	  47:42 PAD
//	  41:40 S = 1 (partial-subblock)
//	  39:12 PPN of the first frame of the aligned frame block
//	        (low log2(sbf) bits unused: blocks are properly placed)
//	  11:0  ATTR
//
// The S field sits at the same position in all three formats so a TLB miss
// handler can read any mapping word and decide how to interpret it without
// knowing the page size in advance — the key property §5 relies on.
type Word uint64

// Field positions shared by all word formats.
const (
	wordVBit   = 63
	szShift    = 59
	szBits     = 4
	validShift = 48 // partial-subblock valid vector
	validBits  = 16
	sShift     = 40
	ppnShift   = 12
	ppnBits    = 28
	attrBits   = 12
	maxPPN     = 1<<ppnBits - 1
	// WordBytes is the size of a mapping word: eight bytes, as §2 requires
	// for 64-bit mapping information.
	WordBytes = 8
)

// Kind is the value of the S field: how to interpret a mapping word.
type Kind uint8

// Mapping-word kinds (the S field of Figure 7).
const (
	KindBase Kind = iota
	KindPartial
	KindSuperpage
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindBase:
		return "base"
	case KindPartial:
		return "partial-subblock"
	case KindSuperpage:
		return "superpage"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// MakeBase builds a valid base-page mapping word.
func MakeBase(ppn addr.PPN, attr Attr) Word {
	checkPPN(ppn)
	return 1<<wordVBit |
		Word(ppn)<<ppnShift |
		Word(attr&AttrMask)
}

// MakeSuperpage builds a superpage mapping word for a page of the given
// size. The PPN must be size-aligned: superpages must be aligned in both
// virtual and physical memory (§4.1).
func MakeSuperpage(ppn addr.PPN, attr Attr, size addr.Size) Word {
	checkPPN(ppn)
	if !size.Valid() {
		panic(fmt.Sprintf("pte: invalid superpage size %d", uint64(size)))
	}
	if uint64(ppn)&(size.Pages()-1) != 0 {
		panic(fmt.Sprintf("pte: superpage PPN %#x not aligned to %v", uint64(ppn), size))
	}
	return 1<<wordVBit |
		Word(addr.SZEncode(size))<<szShift |
		Word(KindSuperpage)<<sShift |
		Word(ppn)<<ppnShift |
		Word(attr&AttrMask)
}

// MakePartial builds a partial-subblock mapping word. basePPN is the first
// frame of the aligned physical frame block; valid is the bit vector of
// resident subblocks (bit i covers block offset i). The subblock factor may
// be at most 16 — "large subblock factors, e.g. 32 or larger, are not
// practical due to the limited number of valid bits in a PTE" (§4.3).
func MakePartial(basePPN addr.PPN, attr Attr, valid uint16, logSBF uint) Word {
	checkPPN(basePPN)
	if logSBF > 4 {
		panic(fmt.Sprintf("pte: partial-subblock factor 1<<%d exceeds 16", logSBF))
	}
	if uint64(basePPN)&(1<<logSBF-1) != 0 {
		panic(fmt.Sprintf("pte: partial-subblock PPN %#x not block aligned", uint64(basePPN)))
	}
	return Word(valid)<<validShift |
		Word(KindPartial)<<sShift |
		Word(basePPN)<<ppnShift |
		Word(attr&AttrMask)
}

func checkPPN(ppn addr.PPN) {
	if ppn > maxPPN {
		panic(fmt.Sprintf("pte: PPN %#x exceeds %d bits", uint64(ppn), ppnBits))
	}
}

// Kind returns the S field.
func (w Word) Kind() Kind { return Kind(w >> sShift & 3) }

// Valid reports whether the word maps anything at all: the V bit for base
// and superpage words, any valid bit for partial-subblock words.
func (w Word) Valid() bool {
	if w.Kind() == KindPartial {
		return w.ValidMask() != 0
	}
	return w>>wordVBit&1 == 1
}

// PPN returns the physical page number field.
func (w Word) PPN() addr.PPN { return addr.PPN(w >> ppnShift & maxPPN) }

// Attr returns the attribute bits.
func (w Word) Attr() Attr { return Attr(w) & AttrMask }

// Size returns the page size mapped by the word: the SZ field for
// superpages, the base page size otherwise. Partial-subblock words map
// base pages.
func (w Word) Size() addr.Size {
	if w.Kind() == KindSuperpage {
		return addr.SZDecode(uint8(w >> szShift & (1<<szBits - 1)))
	}
	return addr.Size4K
}

// ValidMask returns the partial-subblock valid bit vector. It is zero for
// other kinds.
func (w Word) ValidMask() uint16 {
	if w.Kind() != KindPartial {
		return 0
	}
	return uint16(w >> validShift)
}

// ValidAt reports whether block offset boff is resident in a
// partial-subblock word.
func (w Word) ValidAt(boff uint64) bool {
	return w.ValidMask()>>boff&1 == 1
}

// PPNAt returns the frame for block offset boff of a partial-subblock
// word. Because the block is properly placed, the frame is the base frame
// plus the offset (§4.1).
func (w Word) PPNAt(boff uint64) addr.PPN { return w.PPN() + addr.PPN(boff) }

// Frame returns the frame w maps for page vpn, which lies at block
// offset boff: the PPN field for a base word, the superpage's first
// frame plus vpn's page offset within the superpage for a superpage
// word, and PPNAt(boff) for a partial-subblock word. It is the one
// "frame of this page" rule every consumer of a mapping word shares:
// EntryFromWord and the TLB fills. boff is read only for partial words.
func (w Word) Frame(vpn addr.VPN, boff uint64) addr.PPN {
	switch w.Kind() {
	case KindSuperpage:
		// The SZ field counts doublings of the base page, so the
		// superpage spans 1<<SZ pages (Size without the byte detour,
		// which keeps Frame inlinable on the TLB fill path).
		return w.PPN() + addr.PPN(uint64(vpn)&(1<<(w>>szShift&(1<<szBits-1))-1))
	case KindPartial:
		return w.PPNAt(boff)
	}
	return w.PPN()
}

// WithAttr replaces the attribute bits.
func (w Word) WithAttr(a Attr) Word { return w&^Word(AttrMask) | Word(a&AttrMask) }

// WithValidMask replaces the valid vector of a partial-subblock word.
func (w Word) WithValidMask(m uint16) Word {
	if w.Kind() != KindPartial {
		panic("pte: WithValidMask on non-partial word")
	}
	return w&^(Word(1<<validBits-1)<<validShift) | Word(m)<<validShift
}

// Invalid is the zero word: not valid, kind base.
const Invalid Word = 0

// String renders the word for diagnostics.
func (w Word) String() string {
	if !w.Valid() {
		return "<invalid>"
	}
	switch w.Kind() {
	case KindSuperpage:
		return fmt.Sprintf("sp{%v ppn=%#x %v}", w.Size(), uint64(w.PPN()), w.Attr())
	case KindPartial:
		return fmt.Sprintf("psb{v=%#04x ppn=%#x %v}", w.ValidMask(), uint64(w.PPN()), w.Attr())
	default:
		return fmt.Sprintf("base{ppn=%#x %v}", uint64(w.PPN()), w.Attr())
	}
}

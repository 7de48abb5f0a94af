package pte

import (
	"fmt"

	"clusterpt/internal/addr"
)

// Entry is a resolved translation: what a TLB miss handler loads into the
// TLB after a successful page-table lookup. It abstracts over the three
// mapping-word formats so the TLB simulators can consume any page table.
type Entry struct {
	// VPN is the faulting virtual page.
	VPN addr.VPN
	// PPN is the frame mapping the faulting page.
	PPN addr.PPN
	// Attr carries the attribute bits of the covering mapping.
	Attr Attr
	// Size is the page size the TLB entry may cover: 4KB for base and
	// partial-subblock mappings, larger for superpages.
	Size addr.Size
	// Kind identifies the covering mapping word format, which determines
	// what a superpage- or subblock-capable TLB can do with the entry.
	Kind Kind
	// ValidMask is the resident-subblock vector for partial-subblock
	// mappings (bit i covers block offset i); zero otherwise.
	ValidMask uint16
	// BlockPPN is the first frame of the aligned frame block for
	// partial-subblock mappings; for superpages it is the first frame of
	// the superpage. Zero for base mappings.
	BlockPPN addr.PPN
}

// PA returns the physical address translating va, which must lie in the
// page the entry covers.
func (e Entry) PA(va addr.V) addr.P {
	if e.Size == 0 {
		e.Size = addr.Size4K
	}
	base := addr.PAOf(e.PPN)
	return base + addr.P(uint64(va)&addr.OffsetMask)
}

// String renders the entry for diagnostics.
func (e Entry) String() string {
	return fmt.Sprintf("entry{vpn=%#x ppn=%#x %v %v %v}",
		uint64(e.VPN), uint64(e.PPN), e.Size, e.Kind, e.Attr)
}

// EntryFromWord resolves a mapping word covering vpn into an Entry.
// For partial-subblock words boff selects the subblock; the caller must
// have checked ValidAt(boff).
func EntryFromWord(w Word, vpn addr.VPN, boff uint64) Entry {
	// Each kind returns one composite literal, so the entry is written
	// once rather than field by field over a partly built value.
	ppn, attr, kind := w.Frame(vpn, boff), w.Attr(), w.Kind()
	switch kind {
	case KindSuperpage:
		return Entry{VPN: vpn, PPN: ppn, Attr: attr, Size: w.Size(), Kind: kind, BlockPPN: w.PPN()}
	case KindPartial:
		return Entry{VPN: vpn, PPN: ppn, Attr: attr, Size: addr.Size4K, Kind: kind,
			ValidMask: w.ValidMask(), BlockPPN: w.PPN()}
	default:
		return Entry{VPN: vpn, PPN: ppn, Attr: attr, Size: addr.Size4K, Kind: kind}
	}
}

// Word packs the entry back into the mapping word it was resolved from,
// the inverse of EntryFromWord: EntryFromWord(e.Word(), e.VPN, boff) == e
// for any entry EntryFromWord returned for that vpn and boff. A
// partial-subblock word does not record its subblock factor, so the
// block frame's alignment was the builder's to check.
func (e Entry) Word() Word {
	switch e.Kind {
	case KindSuperpage:
		return MakeSuperpage(e.BlockPPN, e.Attr, e.Size)
	case KindPartial:
		return MakePartial(e.BlockPPN, e.Attr, e.ValidMask, 0)
	default:
		return MakeBase(e.PPN, e.Attr)
	}
}

// MaxBlockWords is the largest page block a block of mapping words
// covers: a partial-subblock word's 16 valid bits bound the subblock
// factor (§4.3), and every block fill shares the bound.
const MaxBlockWords = validBits

// PackBlock packs the entries of block vpbn (1<<logSBF pages, at most
// MaxBlockWords) into dst by block offset, the last entry for an offset
// winning, and returns the block's words, dst[:1<<logSBF]. Entries
// outside the block are skipped, and offsets no entry names stay
// Invalid. It is how the entry-taking block fills adapt to the
// word-taking ones.
func PackBlock(dst *[MaxBlockWords]Word, vpbn addr.VPBN, logSBF uint, entries []Entry) []Word {
	words := dst[:1<<logSBF]
	clear(words)
	for _, e := range entries {
		if evpbn, boff := addr.BlockSplit(e.VPN, logSBF); evpbn == vpbn {
			words[boff] = e.Word()
		}
	}
	return words
}

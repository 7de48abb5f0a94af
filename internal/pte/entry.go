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
// have checked ValidAt(boff). blockBase is the first VPN of the page block
// (used to locate superpage/psb frames).
func EntryFromWord(w Word, vpn addr.VPN, boff uint64) Entry {
	e := Entry{VPN: vpn, Attr: w.Attr(), Size: w.Size(), Kind: w.Kind()}
	switch w.Kind() {
	case KindSuperpage:
		// The faulting page's frame is the superpage's first frame plus
		// the page offset within the superpage.
		off := uint64(vpn) & (w.Size().Pages() - 1)
		e.BlockPPN = w.PPN()
		e.PPN = w.PPN() + addr.PPN(off)
	case KindPartial:
		e.BlockPPN = w.PPN()
		e.PPN = w.PPNAt(boff)
		e.ValidMask = w.ValidMask()
		e.Size = addr.Size4K
	default:
		e.PPN = w.PPN()
		e.Size = addr.Size4K
	}
	return e
}

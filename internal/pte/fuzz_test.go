package pte

import (
	"testing"

	"clusterpt/internal/addr"
)

// FuzzPTERoundTrip checks the mapping-word codec both ways: every word a
// constructor can build must decode back to exactly what went in, every
// entry decoded from such a word must name the frame Word.Frame gives its
// page and pack back into it (Entry.Word), for all three kinds, and an
// arbitrary 64-bit pattern — a torn read, a stray write, a corrupted
// page-table page — must decode without panicking. The second half is
// what lets miss handlers read words without locks (§3.1): no bit
// pattern may crash the decoder.
func FuzzPTERoundTrip(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0))
	f.Add(uint64(0x123456), uint64(7), uint64(0xbeef))
	f.Add(uint64(1)<<28-1, uint64(0xfff), uint64(3))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0))
	f.Add(uint64(0x42), uint64(5), uint64(0x8001))
	f.Fuzz(func(t *testing.T, rawPPN, rawAttr, sel uint64) {
		ppn := addr.PPN(rawPPN & maxPPN)
		attr := Attr(rawAttr) & AttrMask

		// Base word: exact round trip.
		w := MakeBase(ppn, attr)
		if !w.Valid() || w.Kind() != KindBase || w.PPN() != ppn || w.Attr() != attr {
			t.Fatalf("base round trip: %#x -> kind=%v ppn=%#x attr=%#x", uint64(w), w.Kind(), uint64(w.PPN()), w.Attr())
		}
		if w.Size() != addr.Size4K || w.ValidMask() != 0 {
			t.Fatalf("base word size/mask: %v %#x", w.Size(), w.ValidMask())
		}
		e := EntryFromWord(w, addr.VPN(rawPPN>>1), 0)
		if e.PPN != ppn || e.Attr != attr {
			t.Fatalf("base entry: %v", e)
		}
		packs(t, w, e, 0)

		// Superpage word: the SZ field survives, and the per-page frame is
		// the superpage's first frame plus the page offset.
		size := addr.R4000Sizes[sel%uint64(len(addr.R4000Sizes))]
		spPPN := ppn &^ addr.PPN(size.Pages()-1)
		w = MakeSuperpage(spPPN, attr, size)
		if !w.Valid() || w.Kind() != KindSuperpage || w.PPN() != spPPN || w.Attr() != attr || w.Size() != size {
			t.Fatalf("superpage round trip: %#x size=%v ppn=%#x", uint64(w), w.Size(), uint64(w.PPN()))
		}
		off := rawAttr % size.Pages()
		vpn := addr.VPN(uint64(spPPN)&^(size.Pages()-1) | off)
		e = EntryFromWord(w, vpn, 0)
		if e.PPN != spPPN+addr.PPN(off) || e.BlockPPN != spPPN {
			t.Fatalf("superpage entry at off %d: %v", off, e)
		}
		packs(t, w, e, 0)

		// Partial-subblock word: the valid vector and per-offset frames
		// survive. logSBF caps at 4 — 16 valid bits in the word (§4.3).
		logSBF := uint(sel % 5)
		valid := uint16(rawAttr) & uint16(1<<(1<<logSBF)-1)
		psbPPN := ppn &^ addr.PPN(1<<logSBF-1)
		w = MakePartial(psbPPN, attr, valid, logSBF)
		if w.Kind() != KindPartial || w.PPN() != psbPPN || w.Attr() != attr || w.ValidMask() != valid {
			t.Fatalf("psb round trip: %#x mask=%#x", uint64(w), w.ValidMask())
		}
		if w.Valid() != (valid != 0) {
			t.Fatalf("psb validity: mask %#x but Valid()=%v", valid, w.Valid())
		}
		for boff := uint64(0); boff < 1<<logSBF; boff++ {
			if w.ValidAt(boff) != (valid>>boff&1 == 1) {
				t.Fatalf("psb ValidAt(%d) disagrees with mask %#x", boff, valid)
			}
			if w.PPNAt(boff) != psbPPN+addr.PPN(boff) {
				t.Fatalf("psb PPNAt(%d) = %#x", boff, uint64(w.PPNAt(boff)))
			}
			vpn := addr.VPN(rawPPN<<logSBF | boff)
			packs(t, w, EntryFromWord(w, vpn, boff), boff)
		}

		// WithAttr touches only the attribute bits.
		newAttr := Attr(sel) & AttrMask
		if got := w.WithAttr(newAttr); got.Attr() != newAttr || got.ValidMask() != valid || got.PPN() != psbPPN {
			t.Fatalf("WithAttr leaked outside attr bits: %#x", uint64(got))
		}

		// Arbitrary bit pattern: every accessor must return, not panic.
		raw := Word(rawPPN ^ rawAttr<<13 ^ sel<<29)
		_ = raw.Kind()
		_ = raw.Valid()
		_ = raw.PPN()
		_ = raw.Attr()
		_ = raw.Size()
		_ = raw.ValidMask()
		_ = raw.ValidAt(sel % 16)
		_ = raw.PPNAt(sel % 16)
		_ = raw.Frame(addr.VPN(sel), sel%16)
		_ = raw.String()
		if raw.Valid() {
			_ = EntryFromWord(raw, addr.VPN(sel), sel%16)
		}
	})
}

// packs checks that e, decoded from w, names the frame w.Frame gives
// its page, packs back into w and decodes again to itself.
func packs(t *testing.T, w Word, e Entry, boff uint64) {
	t.Helper()
	if f := w.Frame(e.VPN, boff); e.PPN != f {
		t.Fatalf("%v decodes frame %#x, Frame gives %#x", e, uint64(e.PPN), uint64(f))
	}
	if got := e.Word(); got != w {
		t.Fatalf("%v packs to %v, want %v", e, got, w)
	}
	if got := EntryFromWord(e.Word(), e.VPN, boff); got != e {
		t.Fatalf("%v does not survive Word: got %v", e, got)
	}
}

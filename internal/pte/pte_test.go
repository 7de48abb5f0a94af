package pte

import (
	"testing"
	"testing/quick"

	"clusterpt/internal/addr"
)

func TestMakeBaseRoundTrip(t *testing.T) {
	f := func(ppnRaw uint32, attrRaw uint16) bool {
		ppn := addr.PPN(ppnRaw) & maxPPN
		attr := Attr(attrRaw) & AttrMask
		w := MakeBase(ppn, attr)
		return w.Valid() &&
			w.Kind() == KindBase &&
			w.PPN() == ppn &&
			w.Attr() == attr &&
			w.Size() == addr.Size4K
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMakeBaseRejectsWidePPN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MakeBase accepted 29-bit PPN")
		}
	}()
	MakeBase(1<<28, AttrR)
}

func TestSuperpageWord(t *testing.T) {
	// A 64KB superpage at frame 0x1230 (16-frame aligned).
	w := MakeSuperpage(0x1230, AttrR|AttrW, addr.Size64K)
	if !w.Valid() || w.Kind() != KindSuperpage {
		t.Fatalf("word = %v", w)
	}
	if w.Size() != addr.Size64K {
		t.Errorf("Size = %v", w.Size())
	}
	if w.PPN() != 0x1230 {
		t.Errorf("PPN = %#x", uint64(w.PPN()))
	}
}

func TestSuperpageAlignmentEnforced(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unaligned superpage accepted")
		}
	}()
	MakeSuperpage(0x1231, AttrR, addr.Size64K)
}

func TestSuperpageAllSizes(t *testing.T) {
	for _, s := range addr.R4000Sizes {
		ppn := addr.PPN(s.Pages()) * 3 // aligned by construction
		w := MakeSuperpage(ppn, AttrR, s)
		if w.Size() != s {
			t.Errorf("size %v round-tripped to %v", s, w.Size())
		}
	}
}

func TestPartialWord(t *testing.T) {
	w := MakePartial(0x40, AttrR|AttrW, 0b1010, 4)
	if !w.Valid() || w.Kind() != KindPartial {
		t.Fatalf("word = %v", w)
	}
	if w.ValidMask() != 0b1010 {
		t.Errorf("ValidMask = %#x", w.ValidMask())
	}
	if w.ValidAt(0) || !w.ValidAt(1) || w.ValidAt(2) || !w.ValidAt(3) {
		t.Error("ValidAt wrong")
	}
	if w.PPNAt(3) != 0x43 {
		t.Errorf("PPNAt(3) = %#x", uint64(w.PPNAt(3)))
	}
	if w.Size() != addr.Size4K {
		t.Errorf("psb Size = %v", w.Size())
	}
}

func TestPartialEmptyMaskIsInvalid(t *testing.T) {
	w := MakePartial(0x40, AttrR, 0, 4)
	if w.Valid() {
		t.Error("psb with empty mask reported valid")
	}
}

func TestPartialRejectsBigFactor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("subblock factor 32 accepted")
		}
	}()
	MakePartial(0, AttrR, 1, 5)
}

func TestPartialRejectsUnalignedBase(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unaligned psb base accepted")
		}
	}()
	MakePartial(0x41, AttrR, 1, 4)
}

func TestSFieldDistinguishesKinds(t *testing.T) {
	// The property §5 relies on: the S field sits at the same place in
	// every format, so a handler can classify any word.
	words := map[Kind]Word{
		KindBase:      MakeBase(5, AttrR),
		KindPartial:   MakePartial(0x40, AttrR, 0xffff, 4),
		KindSuperpage: MakeSuperpage(0x100, AttrR, addr.Size64K),
	}
	for want, w := range words {
		if w.Kind() != want {
			t.Errorf("kind of %v = %v, want %v", w, w.Kind(), want)
		}
	}
}

func TestWithAttr(t *testing.T) {
	w := MakeBase(7, AttrR)
	w2 := w.WithAttr(AttrR | AttrW | AttrMod)
	if w2.Attr() != AttrR|AttrW|AttrMod || w2.PPN() != 7 {
		t.Errorf("WithAttr = %v", w2)
	}
}

func TestWithValidMask(t *testing.T) {
	w := MakePartial(0x80, AttrR, 0x0001, 4)
	w = w.WithValidMask(0x8001)
	if w.ValidMask() != 0x8001 || w.PPN() != 0x80 || w.Attr() != AttrR {
		t.Errorf("WithValidMask = %v", w)
	}
	defer func() {
		if recover() == nil {
			t.Error("WithValidMask on base word did not panic")
		}
	}()
	MakeBase(1, AttrR).WithValidMask(1)
}

func TestEntryFromBaseWord(t *testing.T) {
	w := MakeBase(0x77, AttrR|AttrX)
	e := EntryFromWord(w, 0x41, 1)
	if e.PPN != 0x77 || e.Size != addr.Size4K || e.Kind != KindBase {
		t.Errorf("entry = %v", e)
	}
	if e.PA(0x41034) != addr.PAOf(0x77)+0x34 {
		t.Errorf("PA = %v", e.PA(0x41034))
	}
}

func TestEntryFromSuperpageWord(t *testing.T) {
	// 64KB superpage covering VPNs 0x40..0x4f at frames 0x100..0x10f.
	w := MakeSuperpage(0x100, AttrR|AttrW, addr.Size64K)
	e := EntryFromWord(w, 0x41, 1)
	if e.PPN != 0x101 {
		t.Errorf("faulting frame = %#x, want 0x101", uint64(e.PPN))
	}
	if e.Size != addr.Size64K || e.Kind != KindSuperpage || e.BlockPPN != 0x100 {
		t.Errorf("entry = %v", e)
	}
}

func TestEntryFromPartialWord(t *testing.T) {
	w := MakePartial(0x200, AttrR, 0b10, 4)
	e := EntryFromWord(w, 0x41, 1)
	if e.PPN != 0x201 || e.ValidMask != 0b10 || e.Kind != KindPartial {
		t.Errorf("entry = %v", e)
	}
	if e.Size != addr.Size4K {
		t.Errorf("psb entry size = %v", e.Size)
	}
}

func TestAttrString(t *testing.T) {
	if AttrNone.String() != "-" {
		t.Errorf("AttrNone = %q", AttrNone.String())
	}
	if got := (AttrR | AttrW | AttrMod).String(); got != "r|w|mod" {
		t.Errorf("String = %q", got)
	}
}

func TestAttrProtection(t *testing.T) {
	a := AttrR | AttrW | AttrRef | AttrMod | AttrSW1
	if a.Protection() != AttrR|AttrW {
		t.Errorf("Protection = %v", a.Protection())
	}
}

func TestKindString(t *testing.T) {
	for _, k := range []Kind{KindBase, KindPartial, KindSuperpage, Kind(9)} {
		if k.String() == "" {
			t.Errorf("Kind(%d).String empty", k)
		}
	}
}

func TestWordString(t *testing.T) {
	if Invalid.String() != "<invalid>" {
		t.Error("Invalid.String")
	}
	for _, w := range []Word{
		MakeBase(1, AttrR),
		MakeSuperpage(0x10, AttrR, addr.Size64K),
		MakePartial(0x10, AttrR, 1, 4),
	} {
		if w.String() == "" || w.String() == "<invalid>" {
			t.Errorf("String of %#x wrong", uint64(w))
		}
	}
}

func TestEntryPADefaultsSize(t *testing.T) {
	e := Entry{PPN: 2}
	if e.PA(0x2010) != addr.PAOf(2)+0x10 {
		t.Errorf("PA with zero Size = %v", e.PA(0x2010))
	}
}

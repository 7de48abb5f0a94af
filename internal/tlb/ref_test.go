package tlb

// refTLB is the test-only reference model the differential suite
// (diff_test.go) checks the indexed TLB against. It is written from the
// specification, not from tlb.go: a plain slot array where every lookup
// scans the slots in index order, every slot carries its last-use tick,
// and replacement takes the lowest-index invalid slot, else the slot
// with the smallest tick. It shares only the entry and format types
// with the production TLB, so the suite can compare the two slot arrays
// field for field.

import (
	"clusterpt/internal/addr"
	"clusterpt/internal/pte"
)

type refTLB struct {
	kind    Kind
	logSBF  uint
	entries []entry
	tick    uint64
	stats   Stats
}

func newRefTLB(kind Kind, entries int, logSBF uint) *refTLB {
	return &refTLB{kind: kind, logSBF: logSBF, entries: make([]entry, entries)}
}

// covers reports whether slot e translates vpn.
func (r *refTLB) covers(e *entry, vpn addr.VPN) bool {
	if !e.valid {
		return false
	}
	switch e.format {
	case fSingle:
		return e.vpn == vpn
	case fSpan:
		return vpn&^addr.VPN(e.size.Pages()-1) == e.vpn
	case fPSB, fCSB:
		vpbn, boff := addr.BlockSplit(vpn, r.logSBF)
		return e.vpbn == vpbn && e.mask>>boff&1 == 1
	}
	return false
}

// lookup returns the first slot covering vpn, or -1.
func (r *refTLB) lookup(vpn addr.VPN) int {
	for i := range r.entries {
		if r.covers(&r.entries[i], vpn) {
			return i
		}
	}
	return -1
}

// block returns the first valid block-format slot tagged vpbn,
// whatever its valid mask, or -1.
func (r *refTLB) block(vpbn addr.VPBN) int {
	for i := range r.entries {
		e := &r.entries[i]
		if e.valid && (e.format == fPSB || e.format == fCSB) && e.vpbn == vpbn {
			return i
		}
	}
	return -1
}

// victim picks the slot to fill: the lowest-index invalid slot, else
// the least recently used entry, which counts as a replacement.
func (r *refTLB) victim() int {
	v := 0
	for i := range r.entries {
		if !r.entries[i].valid {
			return i
		}
		if r.entries[i].lru < r.entries[v].lru {
			v = i
		}
	}
	r.stats.Replacements++
	return v
}

// fill stores e, stamped with the current tick, in the victim slot.
func (r *refTLB) fill(e entry) int {
	v := r.victim()
	e.valid = true
	e.lru = r.tick
	r.entries[v] = e
	return v
}

func (r *refTLB) Access(va addr.V) Result {
	vpn := addr.VPNOf(va)
	r.tick++
	r.stats.Accesses++
	if s := r.lookup(vpn); s >= 0 {
		r.entries[s].lru = r.tick
		r.stats.Hits++
		return Result{Hit: true}
	}
	r.stats.Misses++
	if r.kind != CompleteSubblock {
		return Result{}
	}
	// A complete-subblock miss is a subblock miss when the block's tag
	// is already resident, else a block miss.
	vpbn, _ := addr.BlockSplit(vpn, r.logSBF)
	if r.block(vpbn) >= 0 {
		r.stats.SubblockMisses++
		return Result{SubblockMiss: true}
	}
	r.stats.BlockMisses++
	return Result{}
}

func (r *refTLB) Translate(va addr.V) (addr.PPN, bool) {
	vpn := addr.VPNOf(va)
	s := r.lookup(vpn)
	if s < 0 {
		return 0, false
	}
	e := &r.entries[s]
	_, boff := addr.BlockSplit(vpn, r.logSBF)
	switch e.format {
	case fSpan:
		return e.ppn + addr.PPN(vpn-e.vpn), true
	case fPSB:
		return e.ppn + addr.PPN(boff), true
	case fCSB:
		return e.ppns[boff], true
	}
	return e.ppn, true
}

// Insert applies the per-kind format rules: superpage TLBs keep a
// superpage whole; partial-subblock TLBs keep a partial PTE's valid
// vector, and a superpage at least one block large as a fully valid
// block; complete-subblock TLBs add the page to its block's entry,
// allocating one on a block miss; everything else is one base page.
func (r *refTLB) Insert(p pte.Entry) {
	r.tick++
	vpbn, boff := addr.BlockSplit(p.VPN, r.logSBF)
	blockPages := uint64(1) << r.logSBF
	switch {
	case r.kind == CompleteSubblock:
		s := r.block(vpbn)
		if s < 0 {
			s = r.fill(entry{format: fCSB, vpbn: vpbn, ppns: make([]addr.PPN, blockPages)})
		}
		e := &r.entries[s]
		e.mask |= 1 << boff
		e.ppns[boff] = p.PPN
		e.lru = r.tick
	case r.kind == Superpage && p.Kind == pte.KindSuperpage:
		pages := p.Size.Pages()
		base := p.VPN &^ addr.VPN(pages-1)
		r.fill(entry{format: fSpan, vpn: base, size: p.Size, ppn: p.PPN - addr.PPN(p.VPN-base)})
	case r.kind == PartialSubblock && p.Kind == pte.KindPartial:
		r.fill(entry{format: fPSB, vpbn: vpbn, mask: p.ValidMask, ppn: p.PPN - addr.PPN(boff)})
	case r.kind == PartialSubblock && p.Kind == pte.KindSuperpage && p.Size.Pages() >= blockPages:
		full := uint16(uint32(1)<<blockPages - 1)
		r.fill(entry{format: fPSB, vpbn: vpbn, mask: full, ppn: p.PPN - addr.PPN(boff)})
	default:
		r.fill(entry{format: fSingle, vpn: p.VPN, ppn: p.PPN})
	}
}

// InsertBlock loads every given mapping of block vpbn under one
// complete-subblock tag, allocating the tag if it is not resident.
func (r *refTLB) InsertBlock(vpbn addr.VPBN, ps []pte.Entry) {
	r.tick++
	s := r.block(vpbn)
	if s < 0 {
		s = r.fill(entry{format: fCSB, vpbn: vpbn, ppns: make([]addr.PPN, 1<<r.logSBF)})
	}
	e := &r.entries[s]
	e.lru = r.tick
	for _, p := range ps {
		if pb, boff := addr.BlockSplit(p.VPN, r.logSBF); pb == vpbn {
			e.mask |= 1 << boff
			e.ppns[boff] = p.PPN
		}
	}
}

// Invalidate drops every slot covering vpn.
func (r *refTLB) Invalidate(vpn addr.VPN) {
	for i := range r.entries {
		if r.covers(&r.entries[i], vpn) {
			r.entries[i].valid = false
		}
	}
}

// Flush drops every slot.
func (r *refTLB) Flush() {
	for i := range r.entries {
		r.entries[i].valid = false
	}
}

package sim

// The walk-cost table. The §6.1 metric is the cache lines a page-table
// walk touches, and over immutable built tables that count is a pure
// function of the page walked and the organization walking it. So
// before replay starts, replayWorkload walks every mapped page once in
// every variant of its kernel — and, under Fig11d, gathers every block
// holding a mapped page once — and walkLane charges every miss from the
// resulting dense, read-only table. The same walks pack the refill
// entries of the tables that refill a TLB (the kernel's refill variant,
// the canonical build, and each linear build) into their 8-byte mapping
// words, so refStage and linLane hand the TLBs those words — one per
// page refill, a Fig11d block's sixteen in place — instead of walking
// per miss.

import (
	"fmt"
	"slices"

	"clusterpt/internal/addr"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
	"clusterpt/internal/trace"
)

// maxVariants bounds a kernel's variant list: walk costs and line
// counts are fixed arrays indexed by variant position, so the replay hot
// path adds arrays instead of keying by name.
const maxVariants = 4

// walkCost is one page's (or block's) walks: lines touched per variant
// position. uint32 suffices — a single walk touches at most a few
// hundred lines.
type walkCost [maxVariants]uint32

// lineCounts accumulates lines touched per variant position.
type lineCounts [maxVariants]uint64

// add merges another accumulator in.
func (lc *lineCounts) add(o *lineCounts) {
	for i := range lc {
		lc[i] += o[i]
	}
}

// addCost merges one walk into the accumulator.
func (lc *lineCounts) addCost(c *walkCost) {
	for i := range lc {
		lc[i] += uint64(c[i])
	}
}

// walkTable holds every mapped page's (and under Fig11d every populated
// block's) variant walk cost for one process, plus the refill words of
// the canonical and linear builds. Slots are laid out region by region
// over each placed region's full extent, holes included, so a lookup is
// a scan of the two to four regions and an index. A slot that was never
// walked stays zero; every walk touches at least one line
// (newWalkTable checks), so zero reads as "not held".
type walkTable struct {
	regions []costRegion
	pages   []walkCost
	blocks  []walkCost // nil unless Fig11d
	// first names the first walked variant: the one a per-miss walk
	// would have reported losing a page the table does not hold.
	first string
	// canon refills the reference TLB from the kernel's refill variant;
	// lins refill each linear variant's main TLB, index-aligned with
	// figureState.lins.
	canon refills
	lins  []refills
}

// costRegion locates one placed region's slots.
type costRegion struct {
	vpn   addr.VPN  // the extent's first page
	pages uint64    // the extent, Spec.Pages
	slot  int       // vpn's slot in walkTable.pages
	vpbn  addr.VPBN // the block holding vpn
	bslot int       // vpbn's slot in walkTable.blocks
}

// refills is one TLB-refilling table's packed refill store: the mapping
// word each mapped page's Lookup resolved, in walkTable's page slots.
// Words, not decoded pte.Entry values (six times the size), keep the
// store within a few hundred KB per process. pte.Invalid marks a page
// the table does not map.
type refills struct {
	regions []costRegion // walkTable.regions
	words   []pte.Word
	// lines and blockLines are a linear build's walk lines per page slot
	// and per Fig11d block slot, the only walk costs linLane charges. Nil
	// for the canonical build, whose walk the page costs hold.
	lines      []uint32
	blockLines []uint32
	// lost names the table in "lost vpn/block" errors.
	lost string
}

// fig11dBlockLog is log2 of the Fig11d subblock factor (16): the block
// every Fig11d prefetch gathers. Every Figure 11 table and TLB uses the
// same factor, so it is also the geometry a partial-subblock word's
// block offset is read in.
const fig11dBlockLog = 4

// blockWords is one Fig11d block's mapping words, indexed by block
// offset: the gather buffer for a block that crosses a region edge.
type blockWords [1 << fig11dBlockLog]pte.Word

// decodeBlock appends the entries block words decode to, first being
// the block's first page, in ascending page order as AppendBlock
// gathers them: the check that a refill store reproduces its table.
func decodeBlock(dst []pte.Entry, first addr.VPN, words []pte.Word) []pte.Entry {
	for i, w := range words {
		if w != pte.Invalid {
			dst = append(dst, pte.EntryFromWord(w, first+addr.VPN(i), uint64(i)))
		}
	}
	return dst
}

// newWalkTable walks the snapshot's mapped pages in every variant of
// st: the non-reserved variants into the walk costs, the linear ones
// into their refill stores, and the refill variant into both. Under
// Fig11d it also gathers each block holding a mapped page through
// AppendBlock. A variant that loses a mapped page, or cannot gather its
// block, fails the build, and so does a refill store that does not
// reproduce its table: every stored word must decode back to the page's
// Lookup entry, and every Fig11d block's words must decode to
// AppendBlock's gather, entry for entry and in order.
func newWalkTable(st *figureState, snap trace.ProcessSnapshot) (*walkTable, error) {
	t := &walkTable{regions: make([]costRegion, len(snap.Regions))}
	var nPages, nBlocks int
	for i, pr := range snap.Regions {
		first := addr.VPNOf(pr.Base)
		b0, _ := addr.BlockSplit(first, fig11dBlockLog)
		bn, _ := addr.BlockSplit(first+addr.VPN(pr.Spec.Pages-1), fig11dBlockLog)
		t.regions[i] = costRegion{vpn: first, pages: pr.Spec.Pages, slot: nPages, vpbn: b0, bslot: nBlocks}
		nPages += int(pr.Spec.Pages)
		nBlocks += int(bn-b0) + 1
	}
	t.pages = make([]walkCost, nPages)
	if st.fig == Fig11d {
		t.blocks = make([]walkCost, nBlocks)
	}
	newRefills := func(lost string) refills {
		return refills{regions: t.regions, words: make([]pte.Word, nPages), lost: lost}
	}
	t.canon = newRefills("canonical table")

	for i, v := range st.variants {
		table := st.builds[i].Table
		if v.ReservedTLB > 0 {
			// Each linear build keeps its own words: under Fig11c its
			// partial-subblock valid vectors differ from the clustered
			// build's.
			s := newRefills("linear")
			s.lines = make([]uint32, nPages)
			if t.blocks != nil {
				s.blockLines = make([]uint32, nBlocks)
			}
			err := t.walk(v.Name, table, snap, &s,
				func(slot int, lines uint32) { s.lines[slot] = lines },
				func(bslot int, lines uint32) { s.blockLines[bslot] = lines })
			if err != nil {
				return nil, err
			}
			t.lins = append(t.lins, s)
			continue
		}
		if t.first == "" {
			t.first = v.Name
		}
		var s *refills
		if i == st.refill {
			s = &t.canon
		}
		err := t.walk(v.Name, table, snap, s,
			func(slot int, lines uint32) { t.pages[slot][i] = lines },
			func(bslot int, lines uint32) { t.blocks[bslot][i] = lines })
		if err != nil {
			return nil, err
		}
	}

	// Zero marks an empty slot, so no walk the table holds may be free.
	for ri, pr := range snap.Regions {
		r := &t.regions[ri]
		for _, vpn := range pr.Pages {
			if t.pages[r.slot+int(vpn-r.vpn)] == (walkCost{}) {
				return nil, fmt.Errorf("walks of vpn %#x touched no lines", uint64(vpn))
			}
			vpbn, _ := addr.BlockSplit(vpn, fig11dBlockLog)
			if t.blocks != nil && t.blocks[r.bslot+int(vpbn-r.vpbn)] == (walkCost{}) {
				return nil, fmt.Errorf("gathers of block %#x touched no lines", uint64(vpbn))
			}
		}
	}
	return t, nil
}

// walk looks up each of snap's mapped pages in table once, handing page
// its slot and lines, then under Fig11d gathers each block holding one
// once, handing block its block slot and lines. With a refill store s it
// packs every Lookup entry into s and checks that the store refills it
// back, then that the store rebuilds every gathered block.
func (t *walkTable) walk(name string, table pagetable.PageTable, snap trace.ProcessSnapshot, s *refills,
	page, block func(slot int, lines uint32)) error {
	for ri, pr := range snap.Regions {
		r := &t.regions[ri]
		for _, vpn := range pr.Pages {
			e, cost, ok := table.Lookup(addr.VAOf(vpn))
			if !ok {
				return fmt.Errorf("variant %q lost vpn %#x", name, uint64(vpn))
			}
			slot := r.slot + int(vpn-r.vpn)
			page(slot, uint32(cost.Lines))
			if s == nil {
				continue
			}
			s.words[slot] = e.Word()
			w, _, err := s.page(vpn)
			_, boff := addr.BlockSplit(vpn, fig11dBlockLog)
			if got := pte.EntryFromWord(w, vpn, boff); err != nil || got != e {
				return fmt.Errorf("variant %q: vpn %#x: word %v refills %v (%v), not its Lookup entry %v",
					name, uint64(vpn), s.words[slot], got, err, e)
			}
		}
	}
	if t.blocks == nil {
		return nil
	}
	br, ok := table.(pagetable.BlockReader)
	if !ok {
		return fmt.Errorf("variant %q cannot prefetch blocks", name)
	}
	var gathered, rebuilt []pte.Entry
	var gather blockWords
	for ri, pr := range snap.Regions {
		r := &t.regions[ri]
		have := false
		var last addr.VPBN
		for _, vpn := range pr.Pages {
			// Pages ascend, so each block is gathered once per region.
			vpbn, _ := addr.BlockSplit(vpn, fig11dBlockLog)
			if have && vpbn == last {
				continue
			}
			have, last = true, vpbn
			var cost pagetable.WalkCost
			var found bool
			gathered, cost, found = br.AppendBlock(gathered[:0], vpbn, fig11dBlockLog)
			if !found {
				return fmt.Errorf("variant %q lost block %#x", name, uint64(vpbn))
			}
			block(r.bslot+int(vpbn-r.vpbn), uint32(cost.Lines))
			if s == nil {
				continue
			}
			words, _, err := s.block(vpn, &gather)
			rebuilt = decodeBlock(rebuilt[:0], addr.BlockJoin(vpbn, 0, fig11dBlockLog), words)
			if err != nil || !slices.Equal(rebuilt, gathered) {
				return fmt.Errorf("variant %q: block %#x: words rebuild %v (%v), AppendBlock gathered %v",
					name, uint64(vpbn), rebuilt, err, gathered)
			}
		}
	}
	return nil
}

// region returns the region whose extent holds vpn, or nil.
func region(regions []costRegion, vpn addr.VPN) *costRegion {
	for i := range regions {
		if r := &regions[i]; uint64(vpn-r.vpn) < r.pages {
			return r
		}
	}
	return nil
}

// cost returns a miss record's variant walk cost: the block gather's
// on a Fig11d full-block miss, the page walk's otherwise. A page or
// block the table does not hold is an error, as its walk would have
// been.
func (t *walkTable) cost(rec addr.V) (*walkCost, error) {
	vpn := addr.VPNOf(rec)
	vpbn, _ := addr.BlockSplit(vpn, fig11dBlockLog)
	block := rec&missBlockBit != 0
	if r := region(t.regions, vpn); r != nil {
		c := &t.pages[r.slot+int(vpn-r.vpn)]
		if block {
			c = &t.blocks[r.bslot+int(vpbn-r.vpbn)]
		}
		if *c != (walkCost{}) {
			return c, nil
		}
	}
	if block {
		return nil, fmt.Errorf("variant %q lost block %#x", t.first, uint64(vpbn))
	}
	return nil, fmt.Errorf("variant %q lost vpn %#x", t.first, uint64(vpn))
}

// page returns vpn's refill word and, for a linear store, its walk's
// lines. A page the table does not map is an error, as its Lookup was.
func (s *refills) page(vpn addr.VPN) (pte.Word, uint32, error) {
	if r := region(s.regions, vpn); r != nil {
		slot := r.slot + int(vpn-r.vpn)
		if w := s.words[slot]; w != pte.Invalid {
			var lines uint32
			if s.lines != nil {
				lines = s.lines[slot]
			}
			return w, lines, nil
		}
	}
	return pte.Invalid, 0, fmt.Errorf("%s lost vpn %#x", s.lost, uint64(vpn))
}

// block returns the mapping words of the Fig11d block holding vpn,
// indexed by block offset with pte.Invalid for an unmapped page, and,
// for a linear store, the gather's lines. A block inside vpn's region is
// the store's own sixteen words, returned in place for the TLB to read;
// only a block crossing that region's edge is gathered, page by page,
// into gather. A block with no mapped page is an error, as its gather
// was.
func (s *refills) block(vpn addr.VPN, gather *blockWords) ([]pte.Word, uint32, error) {
	const sbf = 1 << fig11dBlockLog
	vpbn, _ := addr.BlockSplit(vpn, fig11dBlockLog)
	if r := region(s.regions, vpn); r != nil {
		first := addr.BlockJoin(vpbn, 0, fig11dBlockLog)
		var words []pte.Word
		if off := uint64(first - r.vpn); first >= r.vpn && off+sbf <= r.pages {
			words = s.words[r.slot+int(off):][:sbf]
		} else {
			for i := range gather {
				p := first + addr.VPN(i)
				gather[i] = pte.Invalid
				if pr := region(s.regions, p); pr != nil {
					gather[i] = s.words[pr.slot+int(p-pr.vpn)]
				}
			}
			words = gather[:]
		}
		var mapped pte.Word
		for _, w := range words {
			mapped |= w
		}
		if mapped != pte.Invalid {
			var lines uint32
			if s.blockLines != nil {
				lines = s.blockLines[r.bslot+int(vpbn-r.vpbn)]
			}
			return words, lines, nil
		}
	}
	return nil, 0, fmt.Errorf("%s lost block %#x", s.lost, uint64(vpbn))
}

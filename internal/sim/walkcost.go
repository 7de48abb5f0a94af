package sim

// The walk-cost table. Figure 11's metric (§6.1) is the cache lines a
// page-table walk touches, and over immutable built tables that count
// is a pure function of the page walked and the organization walking
// it. So before replay starts, runProcess walks every mapped page once
// in every non-reserved variant — and, under Fig11d, gathers every
// block holding a mapped page once — and walkLane charges every miss
// from the resulting dense, read-only table.

import (
	"fmt"

	"clusterpt/internal/addr"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
	"clusterpt/internal/trace"
)

// walkCost is one variant walk set for a page (or block): lines touched
// per accounting class. uint32 suffices — a single walk touches at most
// a few hundred lines.
type walkCost [numLineClasses]uint32

// addCost merges one walk into the accumulator.
func (lc *lineCounts) addCost(c *walkCost) {
	for i := range lc {
		lc[i] += uint64(c[i])
	}
}

// walkTable holds every mapped page's (and under Fig11d every populated
// block's) variant walk cost for one process. Slots are laid out region
// by region over each placed region's full extent, holes included, so a
// lookup is a scan of the two to four regions and an index. A slot that
// was never walked stays zero; every walk touches at least one line
// (newWalkTable checks), so zero reads as "not held".
type walkTable struct {
	regions []costRegion
	pages   []walkCost
	blocks  []walkCost // nil unless Fig11d
	// first names the first walked variant: the one a per-miss walk
	// would have reported losing a page the table does not hold.
	first string
}

// costRegion locates one placed region's slots.
type costRegion struct {
	vpn   addr.VPN  // the extent's first page
	pages uint64    // the extent, Spec.Pages
	slot  int       // vpn's slot in walkTable.pages
	vpbn  addr.VPBN // the block holding vpn
	bslot int       // vpbn's slot in walkTable.blocks
}

// fig11dBlockLog is log2 of the Fig11d subblock factor (16): the block
// every Fig11d prefetch gathers.
const fig11dBlockLog = 4

// newWalkTable walks the snapshot's mapped pages in every non-reserved
// variant of st. Under Fig11d it also gathers each block holding a
// mapped page through AppendBlock, into one reused buffer. A variant
// that loses a mapped page, or cannot gather its block, fails the build.
func newWalkTable(f Figure, st *figureState, snap trace.ProcessSnapshot) (*walkTable, error) {
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
	if f == Fig11d {
		t.blocks = make([]walkCost, nBlocks)
	}

	var buf []pte.Entry
	for i, v := range st.variants {
		if v.ReservedTLB > 0 {
			continue
		}
		table := st.builds[i].Table
		if t.first == "" {
			t.first = v.Name
		}
		var br pagetable.BlockReader
		if t.blocks != nil {
			var ok bool
			if br, ok = table.(pagetable.BlockReader); !ok {
				return nil, fmt.Errorf("variant %q cannot prefetch blocks", v.Name)
			}
		}
		for ri, pr := range snap.Regions {
			r := &t.regions[ri]
			gathered := false
			var last addr.VPBN
			for _, vpn := range pr.Pages {
				_, cost, ok := table.Lookup(addr.VAOf(vpn))
				if !ok {
					return nil, fmt.Errorf("variant %q lost vpn %#x", v.Name, uint64(vpn))
				}
				t.pages[r.slot+int(vpn-r.vpn)][v.Class] += uint32(cost.Lines)
				if br == nil {
					continue
				}
				// Pages ascend, so each block is gathered once per region.
				vpbn, _ := addr.BlockSplit(vpn, fig11dBlockLog)
				if gathered && vpbn == last {
					continue
				}
				gathered, last = true, vpbn
				var found bool
				buf, cost, found = br.AppendBlock(buf[:0], vpbn, fig11dBlockLog)
				if !found {
					return nil, fmt.Errorf("variant %q lost block %#x", v.Name, uint64(vpbn))
				}
				t.blocks[r.bslot+int(vpbn-r.vpbn)][v.Class] += uint32(cost.Lines)
			}
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

// region returns the region whose extent holds vpn, or nil.
func (t *walkTable) region(vpn addr.VPN) *costRegion {
	for i := range t.regions {
		if r := &t.regions[i]; uint64(vpn-r.vpn) < r.pages {
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
	if r := t.region(vpn); r != nil {
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

package sim

// Replay stages. One process's kernel replay interleaves three
// independent state machines per reference, and replayProcess runs them
// inline, in stream order:
//
//   - refStage: the shared reference TLB's miss service. It probes
//     each L2 state once, refills the reference TLB from the refill
//     variant's words, fills the L2s that missed and probes the
//     page-walk caches of the pipelines that walk, and packs each miss's
//     outcome into a miss record.
//   - walkLane: the read-only variant walks. It turns a miss record
//     into per-pipeline line charges, reading the walk's cost from the
//     process's walk-cost table (walkcost.go): every mapped page was
//     walked once in every variant before replay, so a miss costs an
//     indexed read however many pipelines charge it.
//   - linLane: every linear variant's shared main TLB and per-pipeline
//     reserved TLB, L2 and nested-walk cache, refilled and charged from
//     the linear build's refill words and walk lines.
//
// Pipelines with the same L2 geometry (entries and effective ways) share
// one L2 state: the reference-side L2 and each linear variant's L2 and
// reserved TLB. Only the first of them (tailState.l2Of) probes and
// fills; the others copy its L2-hit and nested-miss bits. This is exact
// because the L1 stage is shared (checkPipelines), so each L2 sees the
// same probe and fill stream in every pipeline, and nothing a pipeline
// owns alone (its page-walk caches, its line and nested counts) feeds
// back into the L2 or the reserved TLB.
//
// No stage walks a page table: every walk happened once per page (and
// Fig11d block) when the walk-cost table was built.
//
// walkLane and linLane charge disjoint variant positions (the
// non-reserved variants and the linear ones), so replayProcess merges
// their per-pipeline accumulators with plain uint64 adds. DESIGN.md
// §10 states the contract.

import (
	"clusterpt/internal/addr"
	"clusterpt/internal/linear"
	"clusterpt/internal/mmu"
	"clusterpt/internal/mmu/walkcache"
	"clusterpt/internal/pte"
	"clusterpt/internal/swtlb"
	"clusterpt/internal/tlb"
)

// A miss record is the missing page's address with the page-offset bits
// reused for the outcome walkLane needs: bit 0 says a Fig11d miss was a
// full-block miss (prefetch walk) rather than a subblock miss
// (single-page walk), and pipeline t owns bits 1+2t (its L2 TLB
// serviced the miss: no walk, only the probe line) and 2+2t (its
// page-walk cache hit: the tree-walked variant's upper levels elide).
// The walk costs are held per page, so they never read the offset. The
// stateful L2s and PWCs evolve only in refStage; walkLane turns these
// bits into pure per-record arithmetic.
const (
	missBlockBit = 1
	// maxTails is how many pipelines' bit pairs fit the page offset.
	maxTails = (addr.BasePageShift - 1) / 2
)

// missL2Hit is pipeline t's L2-hit bit in a miss record.
func missL2Hit(t int) addr.V { return 1 << (1 + 2*t) }

// missPWCHit is pipeline t's page-walk-cache-hit bit in a miss record.
func missPWCHit(t int) addr.V { return 1 << (2 + 2*t) }

// refStage services the reference TLB's misses. It refills from the
// canonical build's refill words (walkTable.canon): the TLBs take the
// packed words, one per page refill and a Fig11d block's sixteen in
// place, so no refill decodes an entry. Only a block that crosses a
// region edge is gathered, into gather; walkLane charges the walks.
type refStage struct {
	st     *figureState
	canon  *refills
	gather blockWords
}

// service handles one reference-TLB miss and returns its miss record.
// Every pipeline's L2 is probed first; an L2 hit refills the L1 with the
// base page and skips that pipeline's walk. If any pipeline walks, the
// L1 is refilled from the canonical build, and each walking
// pipeline fills its L2 with the same words and probes its page-walk
// cache. With one pipeline that is exactly its serial miss path; with
// several, checkPipelines guarantees both refills carry the same tag.
func (r *refStage) service(va addr.V, res tlb.Result) (addr.V, error) {
	st := r.st
	vpn := addr.VPNOf(va)
	rec := va &^ addr.OffsetMask
	walks := false
	for t, tl := range st.tails {
		var hit bool
		if tl.l2Of != t {
			hit = rec&missL2Hit(tl.l2Of) != 0 // the shared L2's outcome
		} else if tl.l2 != nil {
			hit = tl.l2.Access(va).Hit
		}
		if hit {
			rec |= missL2Hit(t)
		} else {
			walks = true
		}
	}
	if !walks {
		st.refTLB.InsertWord(vpn, mmu.BaseWord())
		return rec, nil
	}

	var w pte.Word
	var words []pte.Word
	var err error
	vpbn, _ := addr.BlockSplit(vpn, fig11dBlockLog)
	block := st.fig == Fig11d && !res.SubblockMiss
	if block {
		// Block miss with prefetch: refill the whole block (§4.4).
		if words, _, err = r.canon.block(vpn, &r.gather); err != nil {
			return 0, err
		}
		st.refTLB.InsertBlockWords(vpbn, words)
		rec |= missBlockBit
	} else {
		if w, _, err = r.canon.page(vpn); err != nil {
			return 0, err
		}
		st.refTLB.InsertWord(vpn, w)
	}
	for t, tl := range st.tails {
		if rec&missL2Hit(t) != 0 {
			continue
		}
		if tl.l2 != nil && tl.l2Of == t {
			if block {
				fillBlock(tl.l2, vpbn, words)
			} else {
				tl.l2.InsertWord(vpn, w)
			}
		}
		if tl.pwc != nil && tl.pwc.Probe(vpn) {
			rec |= missPWCHit(t)
		}
	}
	return rec, nil
}

// fillBlock fills a single-page L2 with every mapped page of a Fig11d
// block, in ascending page order.
func fillBlock(l2 *swtlb.Cache, vpbn addr.VPBN, words []pte.Word) {
	for i, w := range words {
		if w != pte.Invalid {
			l2.InsertWord(addr.BlockJoin(vpbn, uint64(i), fig11dBlockLog), w)
		}
	}
}

// addCostElided merges one walk with the upper levels of the walk-cached
// variant at position pwc elided — the pure-arithmetic form of a
// page-walk-cache hit (walkcache.ElideLines).
func (lc *lineCounts) addCostElided(c *walkCost, pwc int, upper uint32) {
	for i := range lc {
		if i == pwc {
			lc[i] += uint64(walkcache.ElideLines(int(c[i]), int(upper)))
		} else {
			lc[i] += uint64(c[i])
		}
	}
}

// walkLane charges miss records to every pipeline: the L2 probe line,
// then — unless that pipeline's L2 hit — the variant walks, elided on a
// page-walk-cache hit. The walk cost is read once per record from the
// process's walk-cost table.
type walkLane struct {
	costs *walkTable
	lines []lineCounts // per pipeline
	// probe[t] (nil when pipeline t is flat) is the constant per-miss L2
	// probe charge: l2ProbeLines for every non-reserved variant.
	// pwcIdx and pwcUpper drive the elided merge on PWC-hit records.
	probe    []*walkCost
	pwcIdx   int
	pwcUpper uint32
}

func newWalkLane(st *figureState, costs *walkTable) *walkLane {
	w := &walkLane{
		costs: costs,
		lines: make([]lineCounts, len(st.tails)),
		probe: make([]*walkCost, len(st.tails)),
	}
	probe := new(walkCost)
	for i, v := range st.variants {
		if v.ReservedTLB == 0 {
			probe[i] = l2ProbeLines
		}
	}
	for t, tl := range st.tails {
		if tl.l2 != nil {
			w.probe[t] = probe
		}
	}
	w.pwcIdx, w.pwcUpper = st.pwcIdx, uint32(st.pwcUpper)
	return w
}

// charge accounts one miss record to every pipeline.
func (w *walkLane) charge(rec addr.V) error {
	var c *walkCost
	for t := range w.lines {
		if w.probe[t] != nil {
			w.lines[t].addCost(w.probe[t])
			if rec&missL2Hit(t) != 0 {
				// L2 hit: no page-table walk happened at all.
				continue
			}
		}
		if c == nil {
			var err error
			if c, err = w.costs.cost(rec); err != nil {
				return err
			}
		}
		if rec&missPWCHit(t) != 0 {
			w.lines[t].addCostElided(c, w.pwcIdx, w.pwcUpper)
		} else {
			w.lines[t].addCost(c)
		}
	}
	return nil
}

// linLane runs every linear variant's TLB state machines over the
// reference stream. Like refStage it refills the TLBs with packed words,
// one store per linear build (walkTable.lins), which also hold the leaf
// walk lines it charges; only a Fig11d block that crosses a region edge
// is gathered, into gather.
type linLane struct {
	fig     Figure
	lins    []*linState
	refills []refills // index-aligned with lins
	tails   []*tailState
	lines   []lineCounts // per pipeline
	nested  []uint64     // per pipeline
	gather  blockWords
}

func newLinLane(st *figureState, costs *walkTable) *linLane {
	return &linLane{
		fig: st.fig, lins: st.lins, refills: costs.lins, tails: st.tails,
		lines:  make([]lineCounts, len(st.tails)),
		nested: make([]uint64, len(st.tails)),
	}
}

// step advances every linear variant over one reference.
func (l *linLane) step(va addr.V) error {
	for li, ls := range l.lins {
		if err := l.service(li, ls, va); err != nil {
			return err
		}
	}
	return nil
}

// service advances one linear variant's TLBs for one reference. A
// main-TLB miss costs one leaf-PTE line in each pipeline whose L2 (if
// any) misses; a nested miss on the page-table page's mapping in that
// pipeline's reserved entries adds the upper-level walk. The resulting
// line count is later normalized by the 64-entry TLB's misses, charging
// the opportunity cost of the reserved entries exactly as §6.1 does.
func (l *linLane) service(li int, ls *linState, va addr.V) error {
	res := ls.main.Access(va)
	if res.Hit {
		return nil
	}
	vpn := addr.VPNOf(va)

	var hits uint64 // bit t: pipeline t's L2 hit
	walks := false
	for t, tl := range l.tails {
		lt := &tl.lins[li]
		if lt.l2 != nil {
			l.lines[t][ls.idx] += l2ProbeLines
			var hit bool
			if tl.l2Of != t {
				hit = hits&(1<<tl.l2Of) != 0 // the shared L2's outcome
			} else {
				hit = lt.l2.Access(va).Hit
			}
			if hit {
				hits |= 1 << t
				continue
			}
		}
		walks = true
	}
	if !walks {
		// An L2 hit hands the base translation straight up: no PTE
		// array read, no nested page-table-page translation.
		ls.main.InsertWord(vpn, mmu.BaseWord())
		return nil
	}

	var w pte.Word
	var words []pte.Word
	var lines uint32
	var err error
	vpbn, _ := addr.BlockSplit(vpn, fig11dBlockLog)
	block := l.fig == Fig11d && !res.SubblockMiss
	if block {
		// Block miss with prefetch: the block's PTEs are adjacent in the
		// PTE array.
		if words, lines, err = l.refills[li].block(vpn, &l.gather); err != nil {
			return err
		}
		ls.main.InsertBlockWords(vpbn, words)
	} else {
		if w, lines, err = l.refills[li].page(vpn); err != nil {
			return err
		}
		ls.main.InsertWord(vpn, w)
	}

	// The leaf PTE lives in virtual memory: translating its page can
	// nest-miss in the reserved entries.
	leaf := addr.VPN(linear.LeafPageIndex(vpn))
	leafVA := addr.VAOf(leaf)
	var nested uint64 // bit t: pipeline t's reserved TLB missed
	for t, tl := range l.tails {
		if hits&(1<<t) != 0 {
			continue
		}
		lt := &tl.lins[li]
		l.lines[t][ls.idx] += uint64(lines)
		var missed bool
		if tl.l2Of != t {
			missed = nested&(1<<tl.l2Of) != 0 // the shared reserved TLB's outcome
		} else {
			if lt.l2 != nil {
				if block {
					fillBlock(lt.l2, vpbn, words)
				} else {
					lt.l2.InsertWord(vpn, w)
				}
			}
			if missed = !lt.pt.Access(leafVA).Hit; missed {
				// Only the tag matters to the reserved-entry simulation.
				lt.pt.InsertWord(leaf, mmu.BaseWord())
			}
		}
		if missed {
			nested |= 1 << t
			w := uint64(ls.upper)
			if lt.pwc != nil && lt.pwc.Probe(vpn) {
				// A walk-cache hit skips the upper directories: only the
				// final directory line is read (ElideLines(upper, upper)).
				w = 1
			}
			l.lines[t][ls.idx] += w
			l.nested[t]++
		}
	}
	return nil
}

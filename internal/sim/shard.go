package sim

// Replay stages and the sharded intra-cell pipeline. One process's
// Figure 11 replay interleaves three independent state machines per
// reference, and both replay loops are built from the same three
// stages:
//
//   - refStage: the shared reference TLB's miss service. It probes
//     every pipeline's L2 TLB, refills the reference TLB from the
//     canonical table, fills the L2s and probes the page-walk caches
//     of the pipelines that walk, and packs each miss's outcome into a
//     miss record.
//   - walkLane: the read-only variant walks. It turns a miss record
//     into per-pipeline line charges, reading the walk's cost from the
//     process's walk-cost table (walkcost.go): every mapped page was
//     walked once in every variant before replay, so a miss costs an
//     indexed read however many pipelines charge it.
//   - linLane: every linear variant's shared main TLB and per-pipeline
//     reserved TLB, L2 and nested-walk cache.
//
// Only refStage and linLane carry state from one reference to the
// next, and they share nothing with each other. The serial loop
// (runProcess) runs the three inline. The sharded pipeline exploits
// the decomposition:
//
//   - The driver lane generates the reference stream in chunks, runs
//     the reference TLB and refStage over every reference in stream
//     order with a memoized canonical lookup, and records each miss.
//   - A single linear lane consumes the chunks in stream order and runs
//     linLane with the lookup/walk costs memoized per page (exact:
//     lookups on built tables are pure).
//   - A pool of walk lanes consumes the per-chunk miss records and
//     charges the shared table's costs into per-lane counters. Any
//     assignment of misses to lanes yields the same totals because
//     each miss contributes a pure per-page cost exactly once and
//     uint64 sums over disjoint subsets commute.
//
// The merge is index-ordered and exact — no atomics on the hot path, no
// order-dependent reduction. The only observable difference from the
// serial path is the page tables' internal operation Counters: the
// sharded lanes' memoized canonical and linear lookups count once per
// page instead of once per miss (the variant walks count once per page
// on both paths). Those counters are never rendered by the figure path.
// DESIGN.md §10 states the full contract; shard_test.go pins
// serial/sharded identity field by field.

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"clusterpt/internal/addr"
	"clusterpt/internal/linear"
	"clusterpt/internal/mmu/walkcache"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
	"clusterpt/internal/tlb"
	"clusterpt/internal/trace"
)

// shardChunk is one replay chunk in flight: the references, the packed
// miss records the driver extracted from them, and the number of lanes
// still to consume the chunk before it can be recycled.
type shardChunk struct {
	vas     []addr.V
	miss    []addr.V
	pending atomic.Int32
}

// A miss record is the missing page's address with the page-offset bits
// reused for the outcome the walk lanes need: bit 0 says a Fig11d miss
// was a full-block miss (prefetch walk) rather than a subblock miss
// (single-page walk), and pipeline t owns bits 1+2t (its L2 TLB
// serviced the miss: no walk, only the probe line) and 2+2t (its
// page-walk cache hit: the tree-walked variant's upper levels elide).
// The walks are memoized per page, so they never read the offset. The
// stateful L2s and PWCs evolve only in refStage, in stream order; the
// walk lanes turn these bits into pure per-record arithmetic, so lane
// assignment still cannot affect the totals. Records ride in the same
// []addr.V buffers as references, so both come from the ReplayBuf free
// list.
const (
	missBlockBit = 1
	// maxTails is how many pipelines' bit pairs fit the page offset.
	maxTails = (addr.BasePageShift - 1) / 2
)

// missL2Hit is pipeline t's L2-hit bit in a miss record.
func missL2Hit(t int) addr.V { return 1 << (1 + 2*t) }

// missPWCHit is pipeline t's page-walk-cache-hit bit in a miss record.
func missPWCHit(t int) addr.V { return 1 << (2 + 2*t) }

// releaseChunk returns the chunk to the recycle channel once its last
// consumer is done with it.
func releaseChunk(c *shardChunk, recycle chan<- *shardChunk) {
	if c.pending.Add(-1) == 0 {
		recycle <- c
	}
}

// refStage services the reference TLB's misses. The canonical walk's
// cost is never charged (only the variant walks are).
//
// Each stage can memoize its page-table lookups by page or block. The
// memo is exact: the built tables are immutable during replay, so
// Lookup and LookupBlock are pure functions of the page. Unlike the
// walk costs, what is memoized here are the refill entries themselves,
// and those cost memory: memoizing them on the serial path measured
// +15–31% replay RSS, so only the sharded driver keeps a memo and the
// serial loop keeps none (nil maps miss every read and are never
// written). Block gathers append into buf, reused from miss to miss;
// only the memo clones a block, because it keeps it.
type refStage struct {
	f      Figure
	st     *figureState
	pages  map[addr.VPN]pte.Entry
	blocks map[addr.VPBN][]pte.Entry
	buf    []pte.Entry
}

func newRefStage(f Figure, st *figureState, memoize bool) *refStage {
	r := &refStage{f: f, st: st}
	if memoize {
		r.pages = make(map[addr.VPN]pte.Entry)
		r.blocks = make(map[addr.VPBN][]pte.Entry)
	}
	return r
}

// service handles one reference-TLB miss and returns its miss record.
// Every pipeline's L2 is probed first; an L2 hit refills the L1 with the
// base page and skips that pipeline's walk. If any pipeline walks, the
// L1 is refilled from the canonical (clustered) build, and each walking
// pipeline fills its L2 with the same entries and probes its page-walk
// cache. With one pipeline that is exactly its serial miss path; with
// several, checkPipelines guarantees both refills carry the same tag.
func (r *refStage) service(va addr.V, res tlb.Result) (addr.V, error) {
	st := r.st
	vpn := addr.VPNOf(va)
	rec := va &^ addr.OffsetMask
	walks := false
	for t, tl := range st.tails {
		if tl.l2 != nil && tl.l2.Access(va).Hit {
			rec |= missL2Hit(t)
		} else {
			walks = true
		}
	}
	if !walks {
		st.refTLB.Insert(baseRefill(vpn))
		return rec, nil
	}

	var e pte.Entry
	var entries []pte.Entry
	block := r.f == Fig11d && !res.SubblockMiss
	if block {
		// Block miss with prefetch: gather the whole block (§4.4).
		vpbn, _ := addr.BlockSplit(vpn, fig11dBlockLog)
		var ok bool
		if entries, ok = r.blocks[vpbn]; !ok {
			var err error
			if entries, err = r.lookupBlock(vpbn); err != nil {
				return 0, err
			}
			if r.blocks != nil {
				r.blocks[vpbn] = slices.Clone(entries)
			}
		}
		st.refTLB.InsertBlock(vpbn, entries)
		rec |= missBlockBit
	} else {
		var ok bool
		if e, ok = r.pages[vpn]; !ok {
			var found bool
			if e, _, found = st.canonical.Lookup(va); !found {
				return 0, fmt.Errorf("canonical table lost vpn %#x", uint64(vpn))
			}
			if r.pages != nil {
				r.pages[vpn] = e
			}
		}
		st.refTLB.Insert(e)
	}
	for t, tl := range st.tails {
		if rec&missL2Hit(t) != 0 {
			continue
		}
		if tl.l2 != nil {
			if block {
				for _, be := range entries {
					tl.l2.Insert(be)
				}
			} else {
				tl.l2.Insert(e)
			}
		}
		if tl.pwc != nil && tl.pwc.Probe(vpn) {
			rec |= missPWCHit(t)
		}
	}
	return rec, nil
}

func (r *refStage) lookupBlock(vpbn addr.VPBN) ([]pte.Entry, error) {
	br, ok := r.st.canonical.(pagetable.BlockReader)
	if !ok {
		return nil, fmt.Errorf("canonical table cannot prefetch blocks")
	}
	var found bool
	r.buf, _, found = br.AppendBlock(r.buf[:0], vpbn, fig11dBlockLog)
	if !found {
		return nil, fmt.Errorf("canonical table lost block %#x", uint64(vpbn))
	}
	return r.buf, nil
}

// addCostElided merges one walk with the walk-cached class's upper
// levels elided — the pure-arithmetic form of a page-walk-cache hit
// (walkcache.ElideLines). Classes are unique per variant
// (newFigureState validates), so the elision touches only the
// tree-walked variant's lines.
func (lc *lineCounts) addCostElided(c *walkCost, cls LineClass, upper uint32) {
	for i := range lc {
		if LineClass(i) == cls {
			lc[i] += uint64(walkcache.ElideLines(int(c[i]), int(upper)))
		} else {
			lc[i] += uint64(c[i])
		}
	}
}

// walkLane charges miss records to every pipeline: the L2 probe line,
// then — unless that pipeline's L2 hit — the variant walks, elided on a
// page-walk-cache hit. The walk cost is read once per record from the
// process's shared walk-cost table; each lane keeps private
// accumulators, and because the cost is a pure function of the page,
// the merged totals are independent of which lane sees which miss.
type walkLane struct {
	costs *walkTable
	lines []lineCounts // per pipeline
	// probe[t] (nil when pipeline t is flat) is the constant per-miss L2
	// probe charge: l2ProbeLines for every non-reserved variant class.
	// pwcClass and pwcUpper drive the elided merge on PWC-hit records.
	probe    []*walkCost
	pwcClass LineClass
	pwcUpper uint32
}

func newWalkLane(st *figureState, costs *walkTable) *walkLane {
	w := &walkLane{
		costs: costs,
		lines: make([]lineCounts, len(st.tails)),
		probe: make([]*walkCost, len(st.tails)),
	}
	probe := new(walkCost)
	for _, v := range st.variants {
		if v.ReservedTLB == 0 {
			probe[v.Class] += l2ProbeLines
		}
	}
	for t, tl := range st.tails {
		if tl.l2 != nil {
			w.probe[t] = probe
		}
	}
	if st.pwcIdx >= 0 {
		w.pwcClass = st.variants[st.pwcIdx].Class
		w.pwcUpper = uint32(st.pwcUpper)
	}
	return w
}

// run accounts one chunk's misses.
func (w *walkLane) run(miss []addr.V) error {
	for _, rec := range miss {
		if err := w.charge(rec); err != nil {
			return err
		}
	}
	return nil
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
			w.lines[t].addCostElided(c, w.pwcClass, w.pwcUpper)
		} else {
			w.lines[t].addCost(c)
		}
	}
	return nil
}

// linPage memoizes one page's linear lookup: the entry reinserted into
// the main TLB and the walk's line cost.
type linPage struct {
	e     pte.Entry
	lines uint32
}

// linBlock memoizes one block's linear lookup for Fig11d prefetch.
type linBlock struct {
	entries []pte.Entry
	lines   uint32
}

// linMemo is one linear variant's lookup memo.
type linMemo struct {
	pages  map[addr.VPN]linPage
	blocks map[addr.VPBN]linBlock
}

// linLane runs every linear variant's TLB state machines over the
// reference stream, in stream order, on one goroutine. The TLB state
// evolution does not depend on memoization, so hits, misses, and nested
// misses land exactly as they do serially. Like refStage, and for the
// same resident-memory reason, it memoizes the entries it refills only
// on the sharded path. Block gathers append into buf, reused from miss
// to miss; only the memo clones a block.
type linLane struct {
	f      Figure
	lins   []*linState
	tails  []*tailState
	memos  []linMemo
	lines  []lineCounts // per pipeline
	nested []uint64     // per pipeline
	buf    []pte.Entry
}

func newLinLane(f Figure, st *figureState, memoize bool) *linLane {
	l := &linLane{
		f: f, lins: st.lins, tails: st.tails,
		memos:  make([]linMemo, len(st.lins)),
		lines:  make([]lineCounts, len(st.tails)),
		nested: make([]uint64, len(st.tails)),
	}
	if memoize {
		for i := range l.memos {
			l.memos[i] = linMemo{pages: make(map[addr.VPN]linPage), blocks: make(map[addr.VPBN]linBlock)}
		}
	}
	return l
}

// run advances every linear variant over one chunk of references.
func (l *linLane) run(vas []addr.V) error {
	for _, va := range vas {
		if err := l.step(va); err != nil {
			return err
		}
	}
	return nil
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
			l.lines[t][ls.class] += l2ProbeLines
			if lt.l2.Access(va).Hit {
				hits |= 1 << t
				continue
			}
		}
		walks = true
	}
	if !walks {
		// An L2 hit hands the base translation straight up: no PTE
		// array read, no nested page-table-page translation.
		ls.main.Insert(baseRefill(vpn))
		return nil
	}

	var p linPage
	var b linBlock
	block := l.f == Fig11d && !res.SubblockMiss
	var cost uint32
	if block {
		// Block miss with prefetch: the block's PTEs are adjacent in the
		// PTE array.
		vpbn, _ := addr.BlockSplit(vpn, fig11dBlockLog)
		m := &l.memos[li]
		var ok bool
		if b, ok = m.blocks[vpbn]; !ok {
			var c pagetable.WalkCost
			var found bool
			l.buf, c, found = ls.table.AppendBlock(l.buf[:0], vpbn, fig11dBlockLog)
			if !found {
				return fmt.Errorf("linear lost block %#x", uint64(vpbn))
			}
			b = linBlock{entries: l.buf, lines: uint32(c.Lines)}
			if m.blocks != nil {
				b.entries = slices.Clone(l.buf)
				m.blocks[vpbn] = b
			}
		}
		ls.main.InsertBlock(vpbn, b.entries)
		cost = b.lines
	} else {
		m := &l.memos[li]
		var ok bool
		if p, ok = m.pages[vpn]; !ok {
			e, c, found := ls.table.Lookup(va)
			if !found {
				return fmt.Errorf("linear lost vpn %#x", uint64(vpn))
			}
			p = linPage{e: e, lines: uint32(c.Lines)}
			if m.pages != nil {
				m.pages[vpn] = p
			}
		}
		ls.main.Insert(p.e)
		cost = p.lines
	}

	// The leaf PTE lives in virtual memory: translating its page can
	// nest-miss in the reserved entries.
	leafVA := addr.VAOf(addr.VPN(linear.LeafPageIndex(vpn)))
	for t, tl := range l.tails {
		if hits&(1<<t) != 0 {
			continue
		}
		lt := &tl.lins[li]
		l.lines[t][ls.class] += uint64(cost)
		if lt.l2 != nil {
			if block {
				for _, be := range b.entries {
					lt.l2.Insert(be)
				}
			} else {
				lt.l2.Insert(p.e)
			}
		}
		if !lt.pt.Access(leafVA).Hit {
			w := uint64(ls.upper)
			if lt.pwc != nil && lt.pwc.Probe(vpn) {
				// A walk-cache hit skips the upper directories: only the
				// final directory line is read (ElideLines(upper, upper)).
				w = 1
			}
			l.lines[t][ls.class] += w
			lt.pt.Insert(pteForLeaf(vpn))
			l.nested[t]++
		}
	}
	return nil
}

// runProcessSharded is the fan-out/merge replay pipeline. lanes is the
// total goroutine budget (>= 2): one driver (the calling goroutine),
// one linear lane, and lanes-2 walk lanes; at lanes == 2 the driver
// runs the walks inline between generating chunks. Chunk buffers cycle
// through cfg.Buf's free list, so the steady state allocates nothing.
func runProcessSharded(f Figure, st *figureState, costs *walkTable, snap trace.ProcessSnapshot, refs int, cfg AccessConfig, lanes int) (procResult, error) {
	nWalk := lanes - 2
	if nWalk < 0 {
		nWalk = 0
	}
	// Enough chunks that no lane starves while others work, few enough
	// to stay cache-friendly; the channels hold every chunk at once, so
	// no send can block and the pipeline cannot deadlock.
	inflight := lanes + 2

	linCh := make(chan *shardChunk, inflight)
	walkCh := make(chan *shardChunk, inflight)
	recycle := make(chan *shardChunk, inflight)

	// Lane errors are recorded per lane and merged in fixed lane order,
	// so the reported error does not depend on goroutine timing. (Errors
	// only occur if a built table loses a mapping — a bug — but even
	// then the run must fail deterministically.)
	laneErrs := make([]error, 2+nWalk)
	var errMu sync.Mutex
	var failed atomic.Bool
	setErr := func(lane int, err error) {
		errMu.Lock()
		if laneErrs[lane] == nil {
			laneErrs[lane] = err
		}
		errMu.Unlock()
		failed.Store(true)
	}

	consumers := int32(2)
	if nWalk == 0 {
		consumers = 1
	}

	var wg sync.WaitGroup

	ll := newLinLane(f, st, true)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for c := range linCh {
			if !failed.Load() {
				if err := ll.run(c.vas); err != nil {
					setErr(1, err)
				}
			}
			releaseChunk(c, recycle)
		}
	}()

	walkers := make([]*walkLane, nWalk)
	for wi := range walkers {
		wk := newWalkLane(st, costs)
		walkers[wi] = wk
		wg.Add(1)
		go func(wi int, wk *walkLane) {
			defer wg.Done()
			for c := range walkCh {
				if !failed.Load() {
					if err := wk.run(c.miss); err != nil {
						setErr(2+wi, err)
					}
				}
				releaseChunk(c, recycle)
			}
		}(wi, wk)
	}
	var inline *walkLane
	if nWalk == 0 {
		inline = newWalkLane(st, costs)
	}

	gen := trace.NewGenerator(snap, cfg.Seed*31+1)
	ref := newRefStage(f, st, true)
	buf := cfg.Buf
	var chunks []*shardChunk
	nextChunk := func() *shardChunk {
		select {
		case c := <-recycle:
			return c
		default:
		}
		if len(chunks) < inflight {
			c := &shardChunk{vas: buf.take(replayChunk), miss: buf.take(replayChunk)}
			chunks = append(chunks, c)
			return c
		}
		return <-recycle
	}

	var misses uint64
	remaining := refs
	for remaining > 0 && !failed.Load() {
		c := nextChunk()
		n := replayChunk
		if n > remaining {
			n = remaining
		}
		c.vas = gen.Fill(c.vas, n)
		c.miss = c.miss[:0]
		var derr error
		for _, va := range c.vas {
			res := st.refTLB.Access(va)
			if res.Hit {
				continue
			}
			misses++
			rec, err := ref.service(va, res)
			if err != nil {
				derr = err
				break
			}
			c.miss = append(c.miss, rec)
		}
		if derr == nil && inline != nil {
			derr = inline.run(c.miss)
		}
		if derr != nil {
			setErr(0, derr)
			recycle <- c // never handed to a lane; recycle it directly
			break
		}
		c.pending.Store(consumers)
		if nWalk > 0 {
			walkCh <- c
		}
		linCh <- c
		remaining -= n
	}
	close(linCh)
	close(walkCh)
	wg.Wait()

	// Every chunk is back in recycle now — the lanes have drained their
	// channels and each chunk's last consumer pushed it. Return the
	// buffers to the free list for the worker's next cell.
	for range chunks {
		c := <-recycle
		buf.put(c.vas)
		buf.put(c.miss)
	}

	for _, e := range laneErrs {
		if e != nil {
			return procResult{}, e
		}
	}
	if inline != nil {
		walkers = append(walkers, inline)
	}
	return mergeLanes(misses, ll, walkers...), nil
}

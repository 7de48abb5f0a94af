package sim

// Tests for the Figure 11 replay stages. The identity checks compare
// rows field for field — same misses, same nested count, same
// per-variant average lines to the last bit — with ==, never with
// tolerances.

import (
	"fmt"
	"testing"

	"clusterpt/internal/trace"
)

// figureRowsEqual compares two AccessRows field for field.
func figureRowsEqual(t *testing.T, label string, got, want AccessRow) {
	t.Helper()
	if got.RefMisses != want.RefMisses || got.RefAccesses != want.RefAccesses ||
		got.LinearNested != want.LinearNested {
		t.Fatalf("%s: counters diverged:\n got %+v\nwant %+v", label, got, want)
	}
	if len(got.AvgLines) != len(want.AvgLines) {
		t.Fatalf("%s: variant sets diverged: %v vs %v", label, got.AvgLines, want.AvgLines)
	}
	for name, v := range want.AvgLines {
		if got.AvgLines[name] != v {
			t.Fatalf("%s %s: %v != %v", label, name, got.AvgLines[name], v)
		}
	}
}

// TestFigure11TinyRefs drives the zero-reference-process edge: with a
// tiny total budget, RefShare rounds some of gcc's processes down to
// zero references, and the remaining stream is shorter than one chunk.
// The skipped processes must count no accesses, and the row must still
// normalize by the misses of the processes that ran.
func TestFigure11TinyRefs(t *testing.T) {
	p, ok := trace.ProfileByName("gcc")
	if !ok {
		t.Fatal("no gcc profile")
	}
	const refs = 9 // gcc's 0.1-share processes round to zero references
	zeroed := false
	var want uint64
	for _, pr := range p.Procs {
		n := int(float64(refs) * pr.RefShare)
		zeroed = zeroed || n == 0
		want += uint64(n)
	}
	if !zeroed {
		t.Fatalf("want at least one process rounded to zero references at Refs=%d", refs)
	}
	row, err := RunFigure11(Fig11a, p, AccessConfig{Refs: refs})
	if err != nil {
		t.Fatal(err)
	}
	if row.RefAccesses != want || row.RefMisses == 0 || row.RefMisses > want {
		t.Fatalf("accesses=%d misses=%d, want %d accesses and 1..%d misses",
			row.RefAccesses, row.RefMisses, want, want)
	}
}

// TestReplayBufReuseAcrossCells: a worker's ReplayBuf first serves a
// cell shorter than one chunk, then a full-length one. The second row
// must equal the row a fresh buffer gives, so the short first cell
// cannot shrink the chunk every later replay fills.
func TestReplayBufReuseAcrossCells(t *testing.T) {
	p, ok := trace.ProfileByName("gcc")
	if !ok {
		t.Fatal("no gcc profile")
	}
	buf := &ReplayBuf{}
	if _, err := RunFigure11(Fig11a, p, AccessConfig{Refs: 9, Buf: buf}); err != nil {
		t.Fatal(err)
	}
	reused, err := RunFigure11(Fig11a, p, AccessConfig{Refs: 30_000, Buf: buf})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := RunFigure11(Fig11a, p, AccessConfig{Refs: 30_000, Buf: &ReplayBuf{}})
	if err != nil {
		t.Fatal(err)
	}
	figureRowsEqual(t, "reused buffer", reused, fresh)
}

// TestFigure11MMUReducesWalks sanity-checks the hierarchy's effect. An
// L2 hit saves the walk but the probe itself costs a line, so only a
// multi-line walk can profit: the forward-mapped tree (4+ lines) must
// drop strictly below its flat average, while the ~1-line hashed and
// clustered walks pay more in probes than they save — the hierarchy
// experiment's headline asymmetry. The page-walk cache must then lower
// (or at worst equal) the tree-walked variant further, leave the
// walk-less organizations untouched, and the reference miss count — the
// normalization denominator — must stay identical throughout.
func TestFigure11MMUReducesWalks(t *testing.T) {
	p, ok := trace.ProfileByName("gcc")
	if !ok {
		t.Fatal("no gcc profile")
	}
	cfgFor := func(spec string) AccessConfig {
		m, err := ParseMMU(spec)
		if err != nil {
			t.Fatal(err)
		}
		return AccessConfig{Refs: 50_000, MMU: m}
	}
	flat, err := RunFigure11(Fig11a, p, cfgFor("flat"))
	if err != nil {
		t.Fatal(err)
	}
	l2, err := RunFigure11(Fig11a, p, cfgFor("l2"))
	if err != nil {
		t.Fatal(err)
	}
	pwc, err := RunFigure11(Fig11a, p, cfgFor("l2+pwc"))
	if err != nil {
		t.Fatal(err)
	}
	if l2.RefMisses != flat.RefMisses || pwc.RefMisses != flat.RefMisses {
		t.Fatalf("RefMisses moved with the hierarchy: flat=%d l2=%d l2+pwc=%d",
			flat.RefMisses, l2.RefMisses, pwc.RefMisses)
	}
	if l2.AvgLines["forward-mapped"] >= flat.AvgLines["forward-mapped"] {
		t.Errorf("forward-mapped: l2 avg %v !< flat avg %v",
			l2.AvgLines["forward-mapped"], flat.AvgLines["forward-mapped"])
	}
	// Single-line walks cannot be beaten by a probe that costs a line.
	for _, name := range []string{"hashed", "clustered"} {
		if l2.AvgLines[name] <= flat.AvgLines[name] {
			t.Errorf("%s: l2 avg %v unexpectedly at or below flat avg %v",
				name, l2.AvgLines[name], flat.AvgLines[name])
		}
	}
	if pwc.AvgLines["forward-mapped"] > l2.AvgLines["forward-mapped"] {
		t.Errorf("forward-mapped: l2+pwc avg %v > l2 avg %v",
			pwc.AvgLines["forward-mapped"], l2.AvgLines["forward-mapped"])
	}
	// Hashed and clustered tables have no upper walk: the PWC must be a
	// no-op for them.
	for _, name := range []string{"hashed", "clustered"} {
		if pwc.AvgLines[name] != l2.AvgLines[name] {
			t.Errorf("%s: l2+pwc avg %v != l2 avg %v (PWC should not apply)",
				name, pwc.AvgLines[name], l2.AvgLines[name])
		}
	}
}

// TestFigure11PipelinesMatchSeparate is the acceptance gate for the
// shared L1 stage: one RunFigure11Pipelines call over the flat, l2 and
// l2+pwc pipelines must reproduce three separate RunFigure11 rows field
// for field, for every traced workload, in any pipeline order. Figures
// whose L1 refill depends on the pipeline must refuse more than one
// pipeline with an error.
func TestFigure11PipelinesMatchSeparate(t *testing.T) {
	var mmus []MMUConfig
	for _, spec := range []string{"flat", "l2", "l2+pwc"} {
		m, err := ParseMMU(spec)
		if err != nil {
			t.Fatal(err)
		}
		mmus = append(mmus, m)
	}
	reordered := []int{2, 0, 1} // l2+pwc, flat, l2
	gcc, ok := trace.ProfileByName("gcc")
	if !ok {
		t.Fatal("no gcc profile")
	}
	// The two L2 pipelines evolve one L2 and one set of linear reserved
	// TLBs; the flat pipeline has no L2.
	st, err := newFigureState(figureKernel(Fig11a), gcc.Snapshot()[0], AccessConfig{Entries: 64}, mmus)
	if err != nil {
		t.Fatal(err)
	}
	if tl := st.tails; tl[0].l2 != nil || tl[1].l2 == nil || tl[1].l2 != tl[2].l2 || tl[2].l2Of != 1 {
		t.Errorf("l2 and l2+pwc do not share one L2 (l2Of %d, %d, %d)", tl[0].l2Of, tl[1].l2Of, tl[2].l2Of)
	}
	for li := range st.lins {
		if tl := st.tails; tl[1].lins[li].pt != tl[2].lins[li].pt || tl[0].lins[li].pt == tl[1].lins[li].pt {
			t.Errorf("linear %d: reserved TLBs shared across the wrong pipelines", li)
		}
	}
	for _, p := range trace.Profiles() {
		if p.SnapshotOnly {
			continue
		}
		want := make([]AccessRow, len(mmus))
		for i, m := range mmus {
			row, err := RunFigure11(Fig11a, p, AccessConfig{Refs: 30_000, MMU: m, Buf: &ReplayBuf{}})
			if err != nil {
				t.Fatal(err)
			}
			want[i] = row
		}
		cfg := AccessConfig{Refs: 30_000, Buf: &ReplayBuf{}}
		rows, err := RunFigure11Pipelines(Fig11a, p, cfg, mmus)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range rows {
			figureRowsEqual(t, fmt.Sprintf("%s/mmu=%v", p.Name, mmus[i]), row, want[i])
		}
		perm := make([]MMUConfig, len(reordered))
		for i, j := range reordered {
			perm[i] = mmus[j]
		}
		rows, err = RunFigure11Pipelines(Fig11a, p, cfg, perm)
		if err != nil {
			t.Fatal(err)
		}
		for i, j := range reordered {
			figureRowsEqual(t, fmt.Sprintf("%s/reordered/mmu=%v", p.Name, mmus[j]), rows[i], want[j])
		}
	}

	// The most pipelines the miss record holds: the last pipeline's bits
	// sit at the top of the page offset.
	full := make([]MMUConfig, maxTails)
	for i := range full {
		full[i] = mmus[(i+2)%len(mmus)]
	}
	rows, err := RunFigure11Pipelines(Fig11a, gcc, AccessConfig{Refs: 30_000}, full)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range full {
		want, err := RunFigure11(Fig11a, gcc, AccessConfig{Refs: 30_000, MMU: m})
		if err != nil {
			t.Fatal(err)
		}
		figureRowsEqual(t, fmt.Sprintf("gcc/tail %d/mmu=%v", i, m), rows[i], want)
	}
	for _, f := range []Figure{Fig11b, Fig11c, Fig11d} {
		if _, err := RunFigure11Pipelines(f, gcc, AccessConfig{Refs: 2_000}, mmus); err == nil {
			t.Errorf("%v: %d pipelines accepted", f, len(mmus))
		}
	}
	if _, err := RunFigure11Pipelines(Fig11a, gcc, AccessConfig{Refs: 2_000}, nil); err == nil {
		t.Error("no pipelines accepted")
	}
	if _, err := RunFigure11Pipelines(Fig11a, gcc, AccessConfig{Refs: 2_000}, make([]MMUConfig, maxTails+1)); err == nil {
		t.Errorf("%d pipelines accepted; the miss record holds %d", maxTails+1, maxTails)
	}
}

// TestFigure11PipelinesMixedGeometries fuses pipelines of different L2
// geometries: each row must still equal its separate RunFigure11 row,
// and only pipelines of one geometry (entries and effective ways: an
// unset L2Ways is 4) may share an L2 state. The third pipeline shares
// the first one's L2 but keeps its own page-walk cache.
func TestFigure11PipelinesMixedGeometries(t *testing.T) {
	gcc, ok := trace.ProfileByName("gcc")
	if !ok {
		t.Fatal("no gcc profile")
	}
	mmus := []MMUConfig{
		{L2Entries: 1024, L2Ways: 4},
		{L2Entries: 512, L2Ways: 2},
		{L2Entries: 1024, PWC: true, PWCEntries: 16},
	}
	rows, err := RunFigure11Pipelines(Fig11a, gcc, AccessConfig{Refs: 30_000}, mmus)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range mmus {
		want, err := RunFigure11(Fig11a, gcc, AccessConfig{Refs: 30_000, MMU: m})
		if err != nil {
			t.Fatal(err)
		}
		figureRowsEqual(t, fmt.Sprintf("gcc/L2 %dx%d pwc=%v", m.L2Entries, m.L2Ways, m.PWC), rows[i], want)
	}

	st, err := newFigureState(figureKernel(Fig11a), gcc.Snapshot()[0], AccessConfig{Entries: 64}, mmus)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.lins) == 0 {
		t.Fatal("Fig11a has no linear variant: the reserved-TLB sharing goes unchecked")
	}
	tl := st.tails
	if tl[2].l2 != tl[0].l2 || tl[2].l2Of != 0 || tl[0].l2Of != 0 {
		t.Errorf("{1024,0} does not share {1024,4}'s L2 (l2Of %d, %d)", tl[0].l2Of, tl[2].l2Of)
	}
	if tl[1].l2 == tl[0].l2 || tl[1].l2Of != 1 {
		t.Errorf("{512,2} shares another geometry's L2 (l2Of %d)", tl[1].l2Of)
	}
	if tl[0].pwc != nil || tl[2].pwc == nil {
		t.Errorf("page-walk caches not per pipeline: %v, %v", tl[0].pwc, tl[2].pwc)
	}
	for li := range st.lins {
		if tl[2].lins[li].l2 != tl[0].lins[li].l2 || tl[2].lins[li].pt != tl[0].lins[li].pt {
			t.Errorf("linear %d: {1024,0} does not share {1024,4}'s L2 and reserved TLB", li)
		}
		if tl[1].lins[li].l2 == tl[0].lins[li].l2 || tl[1].lins[li].pt == tl[0].lins[li].pt {
			t.Errorf("linear %d: {512,2} shares another geometry's state", li)
		}
		if tl[2].lins[li].pwc == nil || tl[0].lins[li].pwc != nil {
			t.Errorf("linear %d: nested-walk caches not per pipeline", li)
		}
	}
}

// TestReplayMissPathNoAllocs pins the kernel's miss path at zero
// allocations: every reference of a warmed pthor replay goes through
// the reference TLB, and every miss through refStage (word and Fig11d
// block refills, read in place or gathered at pthor's unaligned region
// edges), walkLane and linLane, flat and under an L2 with page-walk
// caches. Fig11c refills partial-subblock words; Fig11d prefetches
// blocks.
func TestReplayMissPathNoAllocs(t *testing.T) {
	snap := profile(t, "pthor").ProcSnapshot(0)
	for _, f := range []Figure{Fig11c, Fig11d} {
		for _, m := range []MMUConfig{{}, {L2Entries: 512, PWC: true}} {
			label := fmt.Sprintf("%v/%v", f, m)
			cfg := AccessConfig{}
			cfg.fill()
			st, err := newFigureState(figureKernel(f), snap, cfg, []MMUConfig{m})
			if err != nil {
				t.Fatal(err)
			}
			costs, err := newWalkTable(st, snap)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			ref := &refStage{st: st, canon: &costs.canon}
			walk := newWalkLane(st, costs)
			lin := newLinLane(st, costs)
			vas := trace.NewGenerator(snap, 1).Fill(nil, 4096)
			run := func() {
				for _, va := range vas {
					if res := st.refTLB.Access(va); !res.Hit {
						rec, err := ref.service(va, res)
						if err == nil {
							err = walk.charge(rec)
						}
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
					}
					if err := lin.step(va); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
			}
			run() // warm: every TLB full, every buffer sized
			misses := st.refTLB.Stats().Misses
			if allocs := testing.AllocsPerRun(3, run); allocs != 0 {
				t.Errorf("%s: replaying %d references allocated %.1f times per pass, want 0", label, len(vas), allocs)
			}
			if st.refTLB.Stats().Misses == misses {
				t.Fatalf("%s: the measured passes missed nothing", label)
			}
		}
	}
}

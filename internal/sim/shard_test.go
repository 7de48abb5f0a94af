package sim

// Identity tests for the sharded replay pipeline: every lane count must
// reproduce the serial row field for field — same misses, same nested
// count, same per-variant average lines to the last bit. The shard/merge
// contract (DESIGN.md §10) promises exact functional decomposition, so
// these tests compare with ==, never with tolerances.

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

// TestFigure11ShardIdentity is the acceptance gate for the pipeline:
// for two workloads (gcc: multi-process, mixed patterns; mp3d:
// single-process) and all four figures, the sharded row at lane counts
// 1, 2, 4, and 8 equals the serial row exactly. Shards=1 exercises the
// dispatch fallthrough to the serial loop.
func TestFigure11ShardIdentity(t *testing.T) {
	for _, name := range []string{"gcc", "mp3d"} {
		p, ok := trace.ProfileByName(name)
		if !ok {
			t.Fatalf("no %s profile", name)
		}
		for _, f := range []Figure{Fig11a, Fig11b, Fig11c, Fig11d} {
			serial, err := RunFigure11(f, p, AccessConfig{Refs: 50_000, Buf: &ReplayBuf{}})
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 2, 4, 8} {
				row, err := RunFigure11(f, p, AccessConfig{
					Refs: 50_000, Shards: shards, Buf: &ReplayBuf{},
				})
				if err != nil {
					t.Fatal(err)
				}
				figureRowsEqual(t, fmt.Sprintf("%s/%v/shards=%d", name, f, shards), row, serial)
			}
		}
	}
}

// TestFigure11ShardIdentityTinyRefs drives the zero-reference-cell edge:
// with a tiny total budget, RefShare rounds some of gcc's processes down
// to zero references, and the remaining stream is shorter than one chunk
// and not divisible by the lane count. The sharded rows must still match
// serially.
func TestFigure11ShardIdentityTinyRefs(t *testing.T) {
	p, ok := trace.ProfileByName("gcc")
	if !ok {
		t.Fatal("no gcc profile")
	}
	const refs = 9 // gcc's 0.1-share processes round to zero references
	zeroed := false
	for _, pr := range p.Procs {
		if int(float64(refs)*pr.RefShare) == 0 {
			zeroed = true
		}
	}
	if !zeroed {
		t.Fatalf("want at least one process rounded to zero references at Refs=%d", refs)
	}
	serial, err := RunFigure11(Fig11a, p, AccessConfig{Refs: refs})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 8} {
		row, err := RunFigure11(Fig11a, p, AccessConfig{Refs: refs, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		figureRowsEqual(t, fmt.Sprintf("tiny/shards=%d", shards), row, serial)
	}
}

// TestFigure11ShardIdentityMMU extends the identity gate to the
// multi-level hierarchies: the L2 TLB and page-walk cache are stateful,
// but they evolve only on stream-ordered lanes (driver for the shared
// levels, linear lane for the per-variant ones) while the walk lanes
// consume their outcomes as record bits, so every lane count must still
// reproduce the serial row exactly under -mmu l2 and l2+pwc.
func TestFigure11ShardIdentityMMU(t *testing.T) {
	p, ok := trace.ProfileByName("gcc")
	if !ok {
		t.Fatal("no gcc profile")
	}
	for _, spec := range []string{"l2", "l2+pwc"} {
		mmuCfg, err := ParseMMU(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []Figure{Fig11a, Fig11b, Fig11c, Fig11d} {
			serial, err := RunFigure11(f, p, AccessConfig{Refs: 30_000, MMU: mmuCfg, Buf: &ReplayBuf{}})
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{2, 4, 8} {
				row, err := RunFigure11(f, p, AccessConfig{
					Refs: 30_000, Shards: shards, MMU: mmuCfg, Buf: &ReplayBuf{},
				})
				if err != nil {
					t.Fatal(err)
				}
				figureRowsEqual(t, fmt.Sprintf("mmu=%s/%v/shards=%d", spec, f, shards), row, serial)
			}
		}
	}
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

// TestReplayBufShardedSteadyStateAllocs pins satellite (a): the free
// list retains grown buffers across takes of differing sizes, so a
// warmed ReplayBuf serves the sharded pipeline's multi-buffer pattern
// without allocating.
func TestReplayBufShardedSteadyStateAllocs(t *testing.T) {
	buf := &ReplayBuf{}
	cycle := func() {
		// The pipeline's pattern: several chunks live at once, taken at
		// mixed sizes (reference buffers at replayChunk, miss buffers
		// smaller), returned in arbitrary order.
		a := buf.take(replayChunk)
		b := buf.take(replayChunk / 4)
		c := buf.take(replayChunk)
		d := buf.take(replayChunk / 2)
		a = append(a[:0], 1)
		buf.put(c)
		buf.put(a)
		buf.put(d)
		buf.put(b)
	}
	cycle() // warm: populate the free list with grown buffers
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("warmed ReplayBuf allocates %v times per cycle", allocs)
	}
}

// TestFigure11PipelinesMatchSeparate is the acceptance gate for the
// shared L1 stage: one RunFigure11Pipelines call over the flat, l2 and
// l2+pwc pipelines must reproduce three separate RunFigure11 rows field
// for field, for every traced workload and at every lane count, in any
// pipeline order. Figures whose L1 refill depends on the pipeline must
// refuse more than one pipeline with an error.
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
		for _, shards := range []int{1, 2, 4, 8} {
			cfg := AccessConfig{Refs: 30_000, Shards: shards, Buf: &ReplayBuf{}}
			rows, err := RunFigure11Pipelines(Fig11a, p, cfg, mmus)
			if err != nil {
				t.Fatal(err)
			}
			for i, row := range rows {
				figureRowsEqual(t, fmt.Sprintf("%s/mmu=%v/shards=%d", p.Name, mmus[i], shards), row, want[i])
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
				figureRowsEqual(t, fmt.Sprintf("%s/reordered/mmu=%v/shards=%d", p.Name, mmus[j], shards), rows[i], want[j])
			}
		}
	}

	gcc, ok := trace.ProfileByName("gcc")
	if !ok {
		t.Fatal("no gcc profile")
	}
	// The most pipelines the miss record holds: the last pipeline's bits
	// sit at the top of the page offset.
	full := make([]MMUConfig, maxTails)
	for i := range full {
		full[i] = mmus[(i+2)%len(mmus)]
	}
	for _, shards := range []int{1, 4} {
		rows, err := RunFigure11Pipelines(Fig11a, gcc, AccessConfig{Refs: 30_000, Shards: shards}, full)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range full {
			want, err := RunFigure11(Fig11a, gcc, AccessConfig{Refs: 30_000, MMU: m})
			if err != nil {
				t.Fatal(err)
			}
			figureRowsEqual(t, fmt.Sprintf("gcc/tail %d/mmu=%v/shards=%d", i, m, shards), rows[i], want)
		}
	}
	for _, f := range []Figure{Fig11b, Fig11c, Fig11d} {
		for _, shards := range []int{1, 4} {
			if _, err := RunFigure11Pipelines(f, gcc, AccessConfig{Refs: 2_000, Shards: shards}, mmus); err == nil {
				t.Errorf("%v/shards=%d: %d pipelines accepted", f, shards, len(mmus))
			}
		}
	}
	if _, err := RunFigure11Pipelines(Fig11a, gcc, AccessConfig{Refs: 2_000}, nil); err == nil {
		t.Error("no pipelines accepted")
	}
	if _, err := RunFigure11Pipelines(Fig11a, gcc, AccessConfig{Refs: 2_000}, make([]MMUConfig, maxTails+1)); err == nil {
		t.Errorf("%d pipelines accepted; the miss record holds %d", maxTails+1, maxTails)
	}
}

package sim

// The walk-cost table against the per-miss walks it replaced. refWalks
// is that replaced code, kept here as the test-only reference: it
// walks every non-reserved variant for one page or block on every
// call, exactly as the walk lanes once did per miss. refReplay is the
// per-miss replay loop table1, the sweeps, residency and swtlb each
// once kept, kept once as the kernel's oracle. The refill stores are
// checked against the Lookup and AppendBlock calls refStage and
// linLane once made per miss.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
	"clusterpt/internal/tlb"
	"clusterpt/internal/trace"
)

// variantWalk is one non-linear variant the reference walks.
type variantWalk struct {
	name  string
	table pagetable.PageTable
	idx   int // the variant's position
}

// refWalks is the per-miss reference walker.
type refWalks struct {
	walks []variantWalk
	buf   []pte.Entry
}

// newRefWalks walks the non-reserved variants, index-aligned with
// builds.
func newRefWalks(variants []TableVariant, builds []*Build) *refWalks {
	w := &refWalks{}
	for i, v := range variants {
		if v.ReservedTLB == 0 {
			w.walks = append(w.walks, variantWalk{name: v.Name, table: builds[i].Table, idx: i})
		}
	}
	return w
}

// walkPage walks every non-linear variant for one page.
func (w *refWalks) walkPage(va addr.V, c *walkCost) error {
	for _, v := range w.walks {
		_, cost, ok := v.table.Lookup(va)
		if !ok {
			return fmt.Errorf("variant %q lost vpn %#x", v.name, uint64(addr.VPNOf(va)))
		}
		c[v.idx] += uint32(cost.Lines)
	}
	return nil
}

// walkBlock gathers one block from every non-linear variant, the
// complete-subblock prefetch (§4.4).
func (w *refWalks) walkBlock(vpbn addr.VPBN, c *walkCost) error {
	for _, v := range w.walks {
		br, ok := v.table.(pagetable.BlockReader)
		if !ok {
			return fmt.Errorf("variant %q cannot prefetch blocks", v.name)
		}
		var cost pagetable.WalkCost
		var found bool
		w.buf, cost, found = br.AppendBlock(w.buf[:0], vpbn, fig11dBlockLog)
		if !found {
			return fmt.Errorf("variant %q lost block %#x", v.name, uint64(vpbn))
		}
		c[v.idx] += uint32(cost.Lines)
	}
	return nil
}

// TestWalkCostTableMatchesPerMissWalks pins the table slot for slot
// against the reference walks, class by class, for every figure over a
// multi-process workload (gcc), one whose extents exceed their mapped
// pages (pthor), and the kernel snapshot. Building the table must look
// up each mapped page exactly once per variant, linear included, and
// replaying the whole process afterwards must look up nothing more;
// pages or blocks the table does not hold must stay errors.
func TestWalkCostTableMatchesPerMissWalks(t *testing.T) {
	for _, name := range []string{"gcc", "pthor", "kernel"} {
		p := profile(t, name)
		snaps := p.Snapshot()
		if name == "gcc" && len(snaps) != 4 {
			t.Fatalf("gcc has %d processes, want 4", len(snaps))
		}
		holes := 0
		for _, f := range []Figure{Fig11a, Fig11b, Fig11c, Fig11d} {
			for _, snap := range snaps {
				label := fmt.Sprintf("%s/%s/%v", name, snap.Name, f)
				cfg := AccessConfig{}
				cfg.fill()
				st, err := newFigureState(figureKernel(f), snap, cfg, []MMUConfig{{}})
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefWalks(st.variants, st.builds)
				before := make([]uint64, len(st.builds))
				for i, b := range st.builds {
					before[i] = b.Table.Stats().Lookups
				}
				checkLookups := func(when string) {
					t.Helper()
					for i, b := range st.builds {
						if got := b.Table.Stats().Lookups - before[i]; got != snap.MappedPages() {
							t.Errorf("%s: %s ran %d %s lookups, want one per mapped page (%d)",
								label, when, got, st.variants[i].Name, snap.MappedPages())
						}
					}
				}
				costs, err := newWalkTable(st, snap)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkLookups("building the table")
				if !p.SnapshotOnly {
					res, err := replayProcess(st, costs, snap, 20_000, cfg, nil)
					if err != nil || res.misses == 0 {
						t.Fatalf("%s: replay: %d misses, %v", label, res.misses, err)
					}
					checkLookups("building the table and replaying")
				}

				mapped := make(map[addr.VPN]bool)
				for _, vpn := range snap.AllPages() {
					mapped[vpn] = true
					va := addr.VAOf(vpn)
					var want walkCost
					if err := ref.walkPage(va, &want); err != nil {
						t.Fatal(err)
					}
					got, err := costs.cost(va)
					if err != nil || *got != want {
						t.Fatalf("%s: vpn %#x: table %v (%v), per-miss walk %v", label, uint64(vpn), got, err, want)
					}
					if f != Fig11d {
						continue
					}
					vpbn, _ := addr.BlockSplit(vpn, fig11dBlockLog)
					want = walkCost{}
					if err := ref.walkBlock(vpbn, &want); err != nil {
						t.Fatal(err)
					}
					got, err = costs.cost(va | missBlockBit)
					if err != nil || *got != want {
						t.Fatalf("%s: block %#x: table %v (%v), per-miss gather %v", label, uint64(vpbn), got, err, want)
					}
				}

				// An unmapped page inside an extent, and a page outside
				// every region, are not found.
				notFound := func(rec addr.V, want string) {
					t.Helper()
					if c, err := costs.cost(rec); err == nil || !strings.Contains(err.Error(), want) {
						t.Errorf("%s: record %#x: got %v, %v; want a %q error", label, uint64(rec), c, err, want)
					}
				}
				for _, r := range costs.regions {
					for off := uint64(0); off < r.pages; off++ {
						if vpn := r.vpn + addr.VPN(off); !mapped[vpn] {
							notFound(addr.VAOf(vpn), "lost vpn")
							holes++
							break
						}
					}
				}
				outside := addr.VAOf(0)
				if region(costs.regions, 0) != nil {
					t.Fatalf("%s: a region holds vpn 0", label)
				}
				notFound(outside, "lost vpn")
				notFound(outside|missBlockBit, "lost block")
			}
		}
		if name == "pthor" && holes == 0 {
			t.Error("pthor: no unmapped page inside any extent")
		}
	}
}

// refMiss is one miss of a replay: the references replayed so far,
// this one included, and every variant's walk lines.
type refMiss struct {
	refs int
	cost walkCost
}

// refReplay is the per-miss reference replay: every reference goes to a
// TLB of the kernel's kind, and every miss looks the page up in each
// variant's own build, charging each walk's lines at the variant's
// position, then refills the TLB with the refill variant's Lookup
// entry. It replays no reserved-TLB variant.
func refReplay(k kernel, snap trace.ProcessSnapshot, refs int, cfg AccessConfig) ([]refMiss, error) {
	builds := make([]*Build, len(k.variants))
	for i, v := range k.variants {
		if v.ReservedTLB > 0 {
			return nil, fmt.Errorf("reserved-TLB variant %q", v.Name)
		}
		var err error
		if builds[i], err = BuildProcess(v, k.fig.Mode(), snap, cfg.LineModel); err != nil {
			return nil, err
		}
	}
	walks := newRefWalks(k.variants, builds)
	t := tlb.MustNew(tlb.Config{Kind: k.fig.TLBKind(), Entries: cfg.Entries})
	gen := trace.NewGenerator(snap, cfg.Seed*31+1)
	var misses []refMiss
	n := 0
	err := replay(gen, nil, refs, func(va addr.V) error {
		n++
		if t.Access(va).Hit {
			return nil
		}
		m := refMiss{refs: n}
		if err := walks.walkPage(va, &m.cost); err != nil {
			return err
		}
		misses = append(misses, m)
		e, _, ok := builds[k.refill].Table.Lookup(va)
		if !ok {
			return fmt.Errorf("refill variant lost %v", va)
		}
		t.Insert(e)
		return nil
	})
	return misses, err
}

// TestKernelMatchesPerMissReplay pins every kernel that replaced a
// private per-miss loop — table1, the probe-order and superpage-index
// sweeps, swtlb over each raw table, and residency — against refReplay,
// process by process at two seeds: the misses, every variant's lines,
// and what the miss hook sees (reference count and walk costs, miss by
// miss) must be equal. A whole kernel replay must look up each mapped
// page exactly once per variant, all of it while building the walk-cost
// table.
func TestKernelMatchesPerMissReplay(t *testing.T) {
	kernels := map[string]kernel{
		"table1":       table1Kernel(),
		"search-order": searchOrderKernel(),
		"sp-index":     spIndexKernel(),
		"residency":    residencyKernel(),
	}
	for _, name := range []string{"forward-mapped", "hashed", "clustered"} {
		k, err := swtlbKernel(name)
		if err != nil {
			t.Fatal(err)
		}
		kernels["swtlb/"+name] = k
	}
	for kname, k := range kernels {
		for _, w := range []string{"gcc", "pthor", "coral"} {
			for _, seed := range []uint64{1, 7} {
				cfg := AccessConfig{Seed: seed}
				cfg.fill()
				for _, snap := range profile(t, w).Snapshot() {
					label := fmt.Sprintf("%s/%s/%s/seed %d", kname, w, snap.Name, seed)
					const refs = 20_000
					want, err := refReplay(k, snap, refs, cfg)
					if err != nil {
						t.Fatalf("%s: reference: %v", label, err)
					}
					var wantLines lineCounts
					for i := range want {
						wantLines.addCost(&want[i].cost)
					}

					st, err := newFigureState(k, snap, cfg, []MMUConfig{{}})
					if err != nil {
						t.Fatal(err)
					}
					costs, err := newWalkTable(st, snap)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					var got []refMiss
					res, err := replayProcess(st, costs, snap, refs, cfg, func(n int, _ addr.V, c *walkCost) error {
						got = append(got, refMiss{refs: n, cost: *c})
						return nil
					})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					for i, b := range st.builds {
						if n := b.Table.Stats().Lookups; n != snap.MappedPages() {
							t.Errorf("%s: %s ran %d lookups, want one per mapped page (%d)",
								label, st.variants[i].Name, n, snap.MappedPages())
						}
					}
					if res.misses != uint64(len(want)) || res.lines[0] != wantLines {
						t.Errorf("%s: kernel %d misses, lines %v; per-miss replay %d, %v",
							label, res.misses, res.lines[0], len(want), wantLines)
					}
					if !slices.Equal(got, want) {
						t.Errorf("%s: the miss hook saw %d misses unlike the per-miss replay's %d",
							label, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestWalkCostTableLostPage pins the build-time error: a snapshot page
// the built tables do not map fails the table build with the lost-page
// error rather than leaving a zero slot behind.
func TestWalkCostTableLostPage(t *testing.T) {
	snap := profile(t, "pthor").Snapshot()[0]
	for _, f := range []Figure{Fig11a, Fig11d} {
		cfg := AccessConfig{}
		cfg.fill()
		st, err := newFigureState(figureKernel(f), snap, cfg, []MMUConfig{{}})
		if err != nil {
			t.Fatal(err)
		}
		// Claim the first hole of a region with holes as mapped.
		lost := snap
		lost.Regions = append([]trace.PlacedRegion(nil), snap.Regions...)
	find:
		for i, r := range lost.Regions {
			for j := 1; j < len(r.Pages); j++ {
				if hole := r.Pages[j-1] + 1; hole != r.Pages[j] {
					pages := append([]addr.VPN(nil), r.Pages[:j]...)
					lost.Regions[i].Pages = append(append(pages, hole), r.Pages[j:]...)
					break find
				}
			}
		}
		if lost.MappedPages() != snap.MappedPages()+1 {
			t.Fatal("pthor: no hole inside any region")
		}
		if _, err := newWalkTable(st, lost); err == nil || !strings.Contains(err.Error(), "lost vpn") {
			t.Errorf("%v: building over an unmapped page: err = %v, want a lost vpn error", f, err)
		}
	}
}

// TestRefillWordsMatchLookups pins both refill stores, the canonical
// build's and the linear build's, against their tables for every figure
// over gcc, pthor and kernel: every mapped page's word decodes to its
// Lookup entry (and, for linear, charges its Lookup's lines), and every
// Fig11d block's words decode to AppendBlock's gather entry for entry
// and in order. At least one checked Fig11d block crosses a region edge
// (the Unaligned regions place some), so the gathered path is pinned
// beside the in-place one. A hole page and VPN 0 are not found.
func TestRefillWordsMatchLookups(t *testing.T) {
	crossing := 0
	for _, name := range []string{"gcc", "pthor", "kernel"} {
		for _, f := range []Figure{Fig11a, Fig11b, Fig11c, Fig11d} {
			for _, snap := range profile(t, name).Snapshot() {
				label := fmt.Sprintf("%s/%s/%v", name, snap.Name, f)
				cfg := AccessConfig{}
				cfg.fill()
				st, err := newFigureState(figureKernel(f), snap, cfg, []MMUConfig{{}})
				if err != nil {
					t.Fatal(err)
				}
				costs, err := newWalkTable(st, snap)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if len(costs.lins) != len(st.lins) || len(st.lins) == 0 {
					t.Fatalf("%s: %d linear stores for %d linear variants", label, len(costs.lins), len(st.lins))
				}
				stores := []*refills{&costs.canon}
				tables := []pagetable.PageTable{st.builds[st.refill].Table}
				for i, v := range st.variants {
					if v.ReservedTLB > 0 {
						stores = append(stores, &costs.lins[len(tables)-1])
						tables = append(tables, st.builds[i].Table)
					}
				}
				for i, s := range stores {
					crossing += checkRefills(t, label+"/"+s.lost, f, snap, costs, s, tables[i])
				}
			}
		}
	}
	if crossing == 0 {
		t.Error("no checked Fig11d block crosses a region edge")
	}
}

// checkRefills compares one refill store with its table and returns how
// many checked blocks crossed a region edge (were gathered rather than
// read in place).
func checkRefills(t *testing.T, label string, f Figure, snap trace.ProcessSnapshot, costs *walkTable, s *refills, table pagetable.PageTable) int {
	t.Helper()
	linear := s.lines != nil
	mapped := make(map[addr.VPN]bool)
	var gathered, rebuilt []pte.Entry
	var gather blockWords
	crossing := 0
	for _, vpn := range snap.AllPages() {
		mapped[vpn] = true
		want, cost, ok := table.Lookup(addr.VAOf(vpn))
		if !ok {
			t.Fatalf("%s: table lost vpn %#x", label, uint64(vpn))
		}
		w, lines, err := s.page(vpn)
		vpbn, boff := addr.BlockSplit(vpn, fig11dBlockLog)
		if got := pte.EntryFromWord(w, vpn, boff); err != nil || got != want {
			t.Fatalf("%s: vpn %#x: word %v decodes %v (%v), Lookup %v", label, uint64(vpn), w, got, err, want)
		}
		if linear && lines != uint32(cost.Lines) {
			t.Fatalf("%s: vpn %#x charges %d lines, Lookup %d", label, uint64(vpn), lines, cost.Lines)
		}
		if f != Fig11d {
			continue
		}
		gathered, cost, ok = table.(pagetable.BlockReader).AppendBlock(gathered[:0], vpbn, fig11dBlockLog)
		if !ok {
			t.Fatalf("%s: table lost block %#x", label, uint64(vpbn))
		}
		words, lines, err := s.block(vpn, &gather)
		if err != nil || len(words) != len(gather) {
			t.Fatalf("%s: block %#x: %d words (%v), want %d", label, uint64(vpbn), len(words), err, len(gather))
		}
		if &words[0] == &gather[0] {
			crossing++
		}
		rebuilt = decodeBlock(rebuilt[:0], addr.BlockJoin(vpbn, 0, fig11dBlockLog), words)
		if !slices.Equal(rebuilt, gathered) {
			t.Fatalf("%s: block %#x rebuilds %v, AppendBlock %v", label, uint64(vpbn), rebuilt, gathered)
		}
		if linear && lines != uint32(cost.Lines) {
			t.Fatalf("%s: block %#x charges %d lines, AppendBlock %d", label, uint64(vpbn), lines, cost.Lines)
		}
	}

	notFound := func(err error, want string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), s.lost+" "+want) {
			t.Errorf("%s: got %v, want a %q error", label, err, s.lost+" "+want)
		}
	}
	for _, r := range costs.regions {
		for off := uint64(0); off < r.pages; off++ {
			if vpn := r.vpn + addr.VPN(off); !mapped[vpn] {
				_, _, err := s.page(vpn)
				notFound(err, "lost vpn")
				break
			}
		}
	}
	_, _, err := s.page(0)
	notFound(err, "lost vpn")
	_, _, err = s.block(0, &gather)
	notFound(err, "lost block")
	return crossing
}

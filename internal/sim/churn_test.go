package sim

import (
	"fmt"
	"reflect"
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/pte"
	"clusterpt/internal/tlb"
	"clusterpt/internal/trace"
)

func churnWorkload(t *testing.T) trace.Profile {
	t.Helper()
	p, ok := trace.ProfileByName("gcc")
	if !ok {
		t.Fatal("profile gcc missing")
	}
	return p
}

// TestChurnOracleAllOrgs is the differential churn oracle suite: every
// organization must agree translation-for-translation with the plain-map
// reference model after every op epoch, across seeds and churn
// profiles. The replay itself runs with Check enabled, so any
// divergence — a stale PTE surviving an unmap, a promotion changing a
// frame, a demotion losing attributes — fails the epoch it happens in.
func TestChurnOracleAllOrgs(t *testing.T) {
	p := churnWorkload(t)
	seeds := []uint64{1, 2, 3, 0xC0FFEE, 0xFEEDFACE}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, cp := range trace.ChurnProfiles() {
		for _, v := range ChurnVariants() {
			for _, seed := range seeds {
				cp, v, seed := cp, v, seed
				t.Run(fmt.Sprintf("%s/%s/seed%d", cp.Name, v.Name, seed), func(t *testing.T) {
					t.Parallel()
					series, err := RunChurn(p, cp, v, ChurnConfig{
						Refs: 2000, Seed: seed, Check: true,
					})
					if err != nil {
						t.Fatal(err)
					}
					if len(series.Points) != cp.Epochs {
						t.Fatalf("got %d points, want %d", len(series.Points), cp.Epochs)
					}
					var churned uint64
					for _, pt := range series.Points {
						churned += pt.Ops
						if pt.MappedPages < pt.SuperPages+pt.PartialPages {
							t.Fatalf("epoch %d: coverage exceeds mapped pages: %+v", pt.Epoch, pt)
						}
					}
					if churned == 0 {
						t.Fatal("stream produced no churn ops")
					}
				})
			}
		}
	}
}

// TestChurnDeterminism pins the reproducibility contract: the same
// (profile, seed) replay yields the identical time series on repeat
// runs.
func TestChurnDeterminism(t *testing.T) {
	p := churnWorkload(t)
	cp, ok := trace.ChurnProfileByName("slab")
	if !ok {
		t.Fatal("slab profile missing")
	}
	cfg := ChurnConfig{Refs: 4000, Seed: 99, Check: true}
	v := ChurnVariants()[3]
	a, err := RunChurn(p, cp, v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChurn(p, cp, v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("repeat RunChurn diverged")
	}
}

// churnTestLayout builds a tiny hand-rolled layout: one block-aligned
// 64-page VMA, fully populated, which the superpage policy maps as four
// 16-page superpages.
func churnTestLayout() []trace.ChurnVMA {
	const base = addr.VPN(0x1000) // 16-page aligned
	pages := make([]addr.VPN, 64)
	for i := range pages {
		pages[i] = base + addr.VPN(i)
	}
	return []trace.ChurnVMA{{
		Name:    "arena",
		Range:   addr.PageRange(addr.VAOf(base), 64),
		Attr:    pte.AttrR | pte.AttrW,
		Weight:  1,
		Initial: pages,
	}}
}

// TestChurnUnmapOfSuperpageEdges drives the mutation edge cases the
// random streams may only graze: unmapping the interior of a superpage
// block (must demote, not leave a stale wide mapping), remapping the
// hole, explicit demotion, and re-promotion — each followed by a full
// oracle sweep on every organization.
func TestChurnUnmapOfSuperpageEdges(t *testing.T) {
	for _, v := range ChurnVariants() {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			t.Parallel()
			layout := churnTestLayout()
			m, err := newChurnMachine(v, layout)
			if err != nil {
				t.Fatal(err)
			}
			check := func(step string) {
				t.Helper()
				if _, err := m.sweep(true); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
			}
			check("initial populate")
			if c, _ := m.sweep(false); c.SuperPages() == 0 {
				t.Fatalf("initial populate installed no superpages (mapped=%d)", c.mapped)
			}
			base := layout[0].Range.FirstVPN()

			steps := []struct {
				name string
				op   trace.ChurnOp
			}{
				{"unmap interior of superpage", trace.ChurnOp{Kind: trace.ChurnUnmap, VPN: base + 4, Pages: 3}},
				{"unmap across block boundary", trace.ChurnOp{Kind: trace.ChurnUnmap, VPN: base + 14, Pages: 4}},
				{"unmap whole superpage block", trace.ChurnOp{Kind: trace.ChurnUnmap, VPN: base + 32, Pages: 16}},
				{"remap first hole", trace.ChurnOp{Kind: trace.ChurnMap, VPN: base + 4, Pages: 3}},
				{"remap block", trace.ChurnOp{Kind: trace.ChurnMap, VPN: base + 32, Pages: 16}},
				{"demote intact block", trace.ChurnOp{Kind: trace.ChurnDemote, VPN: base + 48, Pages: 16}},
				{"touch after demote repromotes", trace.ChurnOp{Kind: trace.ChurnTouch, VPN: base + 48, Pages: 16}},
				{"unmap everything", trace.ChurnOp{Kind: trace.ChurnUnmap, VPN: base, Pages: 64}},
				{"rebuild", trace.ChurnOp{Kind: trace.ChurnMap, VPN: base, Pages: 64}},
			}
			for _, s := range steps {
				if err := m.apply(s.op); err != nil {
					t.Fatalf("%s: %v", s.name, err)
				}
				check(s.name)
			}
			c, _ := m.sweep(false)
			if c.mapped != 64 {
				t.Fatalf("after rebuild: mapped %d pages, want 64", c.mapped)
			}
		})
	}
}

// SuperPages exposes the sweep tally to tests.
func (c sweepCounts) SuperPages() uint64 { return c.sp }

// TestChurnEpochHotLoopAllocs pins the burst measurement loop — the
// churn replay's per-reference hot path — at zero allocations per
// reference in steady state.
func TestChurnEpochHotLoopAllocs(t *testing.T) {
	layout := churnTestLayout()
	m, err := newChurnMachine(ChurnVariants()[3], layout)
	if err != nil {
		t.Fatal(err)
	}
	tb := tlb.MustNew(tlb.Config{Kind: tlb.Superpage, Entries: 64})
	burst := trace.NewChurnBurst(layout, 7)
	run := func() {
		for i := 0; i < 256; i++ {
			va := burst.Next()
			if tb.Access(va).Hit {
				continue
			}
			if entry, _, ok := m.pt.Lookup(va); ok {
				tb.Insert(entry)
			}
		}
	}
	run() // warm
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("churn burst hot loop allocates %v times per 256 refs", n)
	}
}

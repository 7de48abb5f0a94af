package trace

import (
	"reflect"
	"testing"

	"clusterpt/internal/addr"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Error("different seeds collided immediately")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if n := r.Intn(10); n < 0 || n >= 10 {
			t.Fatalf("Intn out of range: %d", n)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		if n := r.Uint64n(3); n >= 3 {
			t.Fatalf("Uint64n out of range: %d", n)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGPerm(t *testing.T) {
	p := NewRNG(3).Perm(16)
	seen := make([]bool, 16)
	for _, v := range p {
		if v < 0 || v >= 16 || seen[v] {
			t.Fatalf("bad perm %v", p)
		}
		seen[v] = true
	}
}

func TestProfilesCalibration(t *testing.T) {
	// Every profile's mapped footprint must track its Table 1 target
	// within 15%.
	for _, p := range Profiles() {
		got := float64(p.TotalMappedPages())
		want := float64(p.TargetPages())
		if got < want*0.85 || got > want*1.15 {
			t.Errorf("%s: mapped %d pages, Table 1 implies %d", p.Name, uint64(got), uint64(want))
		}
	}
}

func TestProfilesComplete(t *testing.T) {
	ps := Profiles()
	if len(ps) != 11 {
		t.Fatalf("profiles = %d, want 10 workloads + kernel", len(ps))
	}
	want := []string{"coral", "nasa7", "compress", "fftpde", "wave5",
		"mp3d", "spice", "pthor", "ML", "gcc", "kernel"}
	for i, name := range want {
		if ps[i].Name != name {
			t.Errorf("profile %d = %q, want %q", i, ps[i].Name, name)
		}
	}
	if _, ok := ProfileByName("coral"); !ok {
		t.Error("ProfileByName(coral) missing")
	}
	if _, ok := ProfileByName("nope"); ok {
		t.Error("ProfileByName(nope) found")
	}
	// The multiprogrammed workloads have multiple processes (§6.2).
	for _, name := range []string{"gcc", "compress"} {
		p, _ := ProfileByName(name)
		if len(p.Procs) < 2 {
			t.Errorf("%s procs = %d", name, len(p.Procs))
		}
	}
	k, _ := ProfileByName("kernel")
	if !k.SnapshotOnly {
		t.Error("kernel not snapshot-only")
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	p, _ := ProfileByName("pthor")
	a, b := p.Snapshot(), p.Snapshot()
	if len(a) != len(b) {
		t.Fatal("process counts differ")
	}
	for i := range a {
		pa, pb := a[i].AllPages(), b[i].AllPages()
		if len(pa) != len(pb) {
			t.Fatalf("page counts differ: %d vs %d", len(pa), len(pb))
		}
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatal("snapshots diverge")
			}
		}
	}
}

// TestProcSnapshotMatchesSnapshot pins the one-process placement the
// single-process experiments use against the whole-profile snapshot:
// for every profile and process, placing that process alone (in reverse
// order, so no process's placement can lean on an earlier one's) must
// deep-equal its entry in Snapshot.
func TestProcSnapshotMatchesSnapshot(t *testing.T) {
	for _, p := range Profiles() {
		all := p.Snapshot()
		if len(all) != len(p.Procs) {
			t.Fatalf("%s: %d snapshots for %d processes", p.Name, len(all), len(p.Procs))
		}
		for pi := len(p.Procs) - 1; pi >= 0; pi-- {
			if got := p.ProcSnapshot(pi); !reflect.DeepEqual(got, all[pi]) {
				t.Errorf("%s: ProcSnapshot(%d) differs from Snapshot()[%d]", p.Name, pi, pi)
			}
		}
	}
}

func TestSnapshotNoOverlaps(t *testing.T) {
	for _, p := range Profiles() {
		for _, s := range p.Snapshot() {
			for i := range s.Regions {
				for j := i + 1; j < len(s.Regions); j++ {
					if s.Regions[i].Range().Overlaps(s.Regions[j].Range()) {
						t.Errorf("%s/%s: regions %q and %q overlap", p.Name, s.Name,
							s.Regions[i].Spec.Name, s.Regions[j].Spec.Name)
					}
				}
			}
		}
	}
}

func TestSnapshotPagesSortedUnique(t *testing.T) {
	p, _ := ProfileByName("gcc")
	for _, s := range p.Snapshot() {
		pages := s.AllPages()
		for i := 1; i < len(pages); i++ {
			if pages[i] <= pages[i-1] {
				t.Fatalf("%s pages not strictly ascending at %d", s.Name, i)
			}
		}
	}
}

func TestSnapshotDensityHoles(t *testing.T) {
	p, _ := ProfileByName("gcc")
	s := p.Snapshot()
	// cc1 heap has density 0.8: mapped pages must be fewer than extent.
	for _, r := range s[0].Regions {
		if r.Spec.Density < 1 {
			if uint64(len(r.Pages)) >= r.Spec.Pages {
				t.Errorf("region %q has no holes", r.Spec.Name)
			}
			frac := float64(len(r.Pages)) / float64(r.Spec.Pages)
			if frac < r.Spec.Density-0.15 || frac > r.Spec.Density+0.15 {
				t.Errorf("region %q density %v, want ~%v", r.Spec.Name, frac, r.Spec.Density)
			}
		}
	}
}

func TestSnapshot32BitStyle(t *testing.T) {
	// §6.2: the workloads are 32-bit; every page must sit below 4GB
	// (plus the small unaligned offsets).
	for _, p := range Profiles() {
		for _, s := range p.Snapshot() {
			for _, vpn := range s.AllPages() {
				if addr.VAOf(vpn) >= 1<<33 {
					t.Fatalf("%s/%s: page at %v beyond 32-bit layout", p.Name, s.Name, addr.VAOf(vpn))
				}
			}
		}
	}
}

func TestGeneratorDeterministicAndInBounds(t *testing.T) {
	p, _ := ProfileByName("coral")
	s := p.Snapshot()[0]
	mapped := map[addr.VPN]bool{}
	for _, vpn := range s.AllPages() {
		mapped[vpn] = true
	}
	g1 := NewGenerator(s, 99)
	g2 := NewGenerator(s, 99)
	for i := 0; i < 10000; i++ {
		va1, va2 := g1.Next(), g2.Next()
		if va1 != va2 {
			t.Fatal("generators with same seed diverged")
		}
		if !mapped[addr.VPNOf(va1)] {
			t.Fatalf("reference to unmapped page %v", va1)
		}
	}
}

func TestGeneratorCoversRegions(t *testing.T) {
	p, _ := ProfileByName("spice")
	s := p.Snapshot()[0]
	counts := make(map[string]int)
	g := NewGenerator(s, 1)
	for i := 0; i < 50000; i++ {
		va := g.Next()
		for _, r := range s.Regions {
			if r.Range().Contains(va) {
				counts[r.Spec.Name]++
				break
			}
		}
	}
	for _, r := range s.Regions {
		if counts[r.Spec.Name] == 0 {
			t.Errorf("region %q never referenced", r.Spec.Name)
		}
	}
	// Region shares should roughly track weights.
	if counts["matrix"] < counts["text"] {
		t.Errorf("weights ignored: matrix=%d text=%d", counts["matrix"], counts["text"])
	}
}

func TestGeneratorSequentialPattern(t *testing.T) {
	s := ProcessSnapshot{Name: "t", Regions: []PlacedRegion{{
		Spec:  RegionSpec{Name: "seq", Pages: 8, Density: 1, Weight: 1, Pattern: Sequential},
		Base:  0x10000,
		Pages: []addr.VPN{0x10, 0x11, 0x12, 0x13},
	}}}
	g := NewGenerator(s, 5)
	for i := 0; i < 8; i++ {
		want := addr.VPN(0x10 + i%4)
		if got := addr.VPNOf(g.Next()); got != want {
			t.Fatalf("step %d: page %#x, want %#x", i, uint64(got), uint64(want))
		}
	}
}

func TestGeneratorChaseCyclesAllPages(t *testing.T) {
	pagesN := 64
	pr := PlacedRegion{Spec: RegionSpec{Weight: 1, Pattern: Chase}}
	for i := 0; i < pagesN; i++ {
		pr.Pages = append(pr.Pages, addr.VPN(0x100+i))
	}
	g := NewGenerator(ProcessSnapshot{Regions: []PlacedRegion{pr}}, 7)
	seen := map[addr.VPN]bool{}
	for i := 0; i < pagesN*4; i++ {
		seen[addr.VPNOf(g.Next())] = true
	}
	// Sattolo single-cycle permutation: every page appears.
	if len(seen) != pagesN {
		t.Errorf("chase visited %d of %d pages, want all (single cycle)", len(seen), pagesN)
	}
}

func TestGeneratorEmptySnapshot(t *testing.T) {
	g := NewGenerator(ProcessSnapshot{}, 1)
	if g.Next() != 0 {
		t.Error("empty generator returned nonzero")
	}
}

func TestFill(t *testing.T) {
	p, _ := ProfileByName("mp3d")
	s := p.Snapshot()[0]
	g := NewGenerator(s, 3)
	out := g.Fill(nil, 100)
	if len(out) != 100 {
		t.Errorf("len = %d", len(out))
	}
}

func TestDwellOrOne(t *testing.T) {
	if (Profile{}).DwellOrOne() != 1 {
		t.Error("zero dwell not defaulted")
	}
	p, _ := ProfileByName("coral")
	if p.DwellOrOne() != 40 {
		t.Errorf("coral dwell = %d", p.DwellOrOne())
	}
	// Every traced profile has a calibrated dwell; the kernel has none.
	for _, p := range Profiles() {
		if p.SnapshotOnly {
			if p.Dwell != 0 {
				t.Errorf("%s: snapshot-only with dwell", p.Name)
			}
			continue
		}
		if p.Dwell == 0 {
			t.Errorf("%s: missing dwell calibration", p.Name)
		}
	}
}

func TestGeneratorStridedCoversRegion(t *testing.T) {
	// A stride coprime with the page count must visit every page.
	pagesN := 100
	pr := PlacedRegion{Spec: RegionSpec{Weight: 1, Pattern: Strided, Stride: 33}}
	for i := 0; i < pagesN; i++ {
		pr.Pages = append(pr.Pages, addr.VPN(0x500+i))
	}
	g := NewGenerator(ProcessSnapshot{Regions: []PlacedRegion{pr}}, 3)
	seen := map[addr.VPN]bool{}
	for i := 0; i < pagesN; i++ {
		seen[addr.VPNOf(g.Next())] = true
	}
	if len(seen) != pagesN {
		t.Errorf("strided visited %d of %d pages", len(seen), pagesN)
	}
}

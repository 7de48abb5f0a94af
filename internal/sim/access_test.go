package sim

import (
	"testing"

	"clusterpt/internal/trace"
)

// Access-time tests use short traces; the properties asserted are robust
// to trace length.
var testCfg = AccessConfig{Refs: 60_000}

func tracedProfiles(t *testing.T) []trace.Profile {
	t.Helper()
	var out []trace.Profile
	for _, p := range trace.Profiles() {
		if !p.SnapshotOnly {
			out = append(out, p)
		}
	}
	return out
}

func TestFigure11aShape(t *testing.T) {
	for _, name := range []string{"coral", "ML", "gcc"} {
		row, err := RunFigure11(Fig11a, profile(t, name), testCfg)
		if err != nil {
			t.Fatal(err)
		}
		// Forward-mapped tables walk all seven levels: "unacceptable".
		if fwd := row.AvgLines["forward-mapped"]; fwd != 7.0 {
			t.Errorf("%s: forward = %.2f, want 7", name, fwd)
		}
		// The other designs are similar, near one line per miss.
		for _, v := range []string{"linear", "hashed", "clustered"} {
			if l := row.AvgLines[v]; l < 0.99 || l > 2.6 {
				t.Errorf("%s: %s = %.2f, want ~1–2.5", name, v, l)
			}
		}
		// Clustered has shorter chains than hashed (same buckets, 16x
		// fewer nodes).
		if row.AvgLines["clustered"] > row.AvgLines["hashed"]+1e-9 {
			t.Errorf("%s: clustered %.2f > hashed %.2f", name,
				row.AvgLines["clustered"], row.AvgLines["hashed"])
		}
	}
}

func TestFigure11aMLChains(t *testing.T) {
	// ML's ~8300 PTEs on 4096 buckets give hashed α≈2 → ≈2 lines/miss,
	// while clustered's 16x fewer nodes stay near 1 (§6.3 singles out
	// ML).
	row, err := RunFigure11(Fig11a, profile(t, "ML"), testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if h := row.AvgLines["hashed"]; h < 1.6 || h > 2.4 {
		t.Errorf("hashed = %.2f, want ≈2 (1+α/2)", h)
	}
	if c := row.AvgLines["clustered"]; c > 1.2 {
		t.Errorf("clustered = %.2f, want ≈1", c)
	}
}

func TestFigure11bShape(t *testing.T) {
	// Superpage TLB: clustered handles the remaining misses with no
	// extra penalty; hashed pays the failed 4KB-table probe on superpage
	// misses (§6.3).
	row, err := RunFigure11(Fig11b, profile(t, "coral"), testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if c := row.AvgLines["clustered"]; c > 1.2 {
		t.Errorf("clustered = %.2f", c)
	}
	if h := row.AvgLines["hashed"]; h < 1.7 {
		t.Errorf("hashed = %.2f, want ≈2 for superpage-heavy coral", h)
	}
	// gcc's misses mostly hit base PTEs, so hashed stays closer to 1
	// ("poor performance ... for coral is due to a higher fraction of
	// misses to superpage PTEs than for gcc").
	gcc, err := RunFigure11(Fig11b, profile(t, "gcc"), testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if gcc.AvgLines["hashed"] >= row.AvgLines["hashed"] {
		t.Errorf("gcc hashed %.2f ≥ coral hashed %.2f", gcc.AvgLines["hashed"], row.AvgLines["hashed"])
	}
}

func TestFigure11bSuperpagesReduceMisses(t *testing.T) {
	// "Use of superpages reduces TLB miss frequency by 50% to 99%": the
	// superpage TLB must miss far less than the single-page-size TLB on
	// superpage-friendly workloads.
	for _, name := range []string{"nasa7", "ML", "spice"} {
		a, err := RunFigure11(Fig11a, profile(t, name), testCfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunFigure11(Fig11b, profile(t, name), testCfg)
		if err != nil {
			t.Fatal(err)
		}
		if b.RefMisses*2 > a.RefMisses {
			t.Errorf("%s: superpage TLB misses %d vs single %d, want ≥50%% reduction",
				name, b.RefMisses, a.RefMisses)
		}
	}
}

func TestFigure11cShape(t *testing.T) {
	// Partial-subblock TLB: hashed pays two probes nearly everywhere;
	// clustered stays near 1.
	for _, name := range []string{"coral", "fftpde", "pthor"} {
		row, err := RunFigure11(Fig11c, profile(t, name), testCfg)
		if err != nil {
			t.Fatal(err)
		}
		if c := row.AvgLines["clustered"]; c > 1.2 {
			t.Errorf("%s: clustered = %.2f", name, c)
		}
		if h := row.AvgLines["hashed"]; h < 1.7 {
			t.Errorf("%s: hashed = %.2f, want ≈2", name, h)
		}
	}
}

func TestFigure11dShape(t *testing.T) {
	// Complete-subblock prefetch: hashed needs ~16 probes per block miss
	// ("performs terribly", note the different scale); linear and
	// clustered stay near 1 (adjacent mappings).
	for _, name := range []string{"coral", "wave5", "gcc"} {
		row, err := RunFigure11(Fig11d, profile(t, name), testCfg)
		if err != nil {
			t.Fatal(err)
		}
		if h := row.AvgLines["hashed"]; h < 14 {
			t.Errorf("%s: hashed = %.2f, want ≥14 (sixteen probes)", name, h)
		}
		if c := row.AvgLines["clustered"]; c > 1.3 {
			t.Errorf("%s: clustered = %.2f", name, c)
		}
		if l := row.AvgLines["linear"]; l > 2.6 {
			t.Errorf("%s: linear = %.2f", name, l)
		}
		if f := row.AvgLines["forward-mapped"]; f != 7.0 {
			t.Errorf("%s: forward = %.2f", name, f)
		}
	}
}

func TestFigure11Deterministic(t *testing.T) {
	a, err := RunFigure11(Fig11a, profile(t, "mp3d"), testCfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFigure11(Fig11a, profile(t, "mp3d"), testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.RefMisses != b.RefMisses {
		t.Errorf("misses diverged: %d vs %d", a.RefMisses, b.RefMisses)
	}
	for k, v := range a.AvgLines {
		if b.AvgLines[k] != v {
			t.Errorf("%s diverged", k)
		}
	}
}

func TestTable1(t *testing.T) {
	rows, err := RunTable1(trace.Profiles(), Table1Config{Refs: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Workload] = r
		if r.Workload == "kernel" {
			if r.Accesses != 0 {
				t.Error("kernel was traced")
			}
			continue
		}
		if r.Accesses == 0 || r.Misses == 0 {
			t.Errorf("%s: empty characterization %+v", r.Workload, r)
		}
		if r.MissRatio <= 0 || r.MissRatio > 1 {
			t.Errorf("%s: miss ratio %v", r.Workload, r.MissRatio)
		}
		if r.PctTLBTime <= 0 || r.PctTLBTime >= 100 {
			t.Errorf("%s: pct %v", r.Workload, r.PctTLBTime)
		}
	}
	// The TLB-bound workloads at the top of Table 1 must out-miss the
	// bottom ones.
	if byName["coral"].MissRatio <= byName["gcc"].MissRatio {
		t.Errorf("coral %.4f ≤ gcc %.4f", byName["coral"].MissRatio, byName["gcc"].MissRatio)
	}
	if byName["nasa7"].MissRatio <= byName["gcc"].MissRatio {
		t.Errorf("nasa7 ≤ gcc")
	}
}

func TestLineSizeSweep(t *testing.T) {
	rows := LineSizeSweep([]int{256, 128, 64}, 16)
	want := map[int]float64{256: 0, 128: 0.125, 64: 0.625}
	for _, r := range rows {
		if w := want[r.LineSize]; r.ExtraVsOneLine != w {
			t.Errorf("line %d: extra = %.3f, want %.3f (§6.3)", r.LineSize, r.ExtraVsOneLine, w)
		}
	}
}

func TestSubblockSweep(t *testing.T) {
	rows, err := SubblockSweep(profile(t, "gcc"), []int{4, 8, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Larger factors shrink dense tables but the line-crossing penalty
	// grows (§6.3's space/time tradeoff).
	if rows[3].ExtraLines <= rows[0].ExtraLines {
		t.Errorf("factor 32 extra %.3f ≤ factor 4 extra %.3f", rows[3].ExtraLines, rows[0].ExtraLines)
	}
	for _, r := range rows {
		if r.PTEBytes == 0 || r.NormalizedSize <= 0 {
			t.Errorf("row %+v empty", r)
		}
	}
}

func TestLoadFactorSweep(t *testing.T) {
	rows, err := LoadFactorSweep(profile(t, "ML"), []int{64, 256, 1024})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Knuth: measured ≈ 1 + α/2 under uniform hashing; allow 35%
		// slack for the non-random insertion order the Appendix warns
		// about.
		if r.Measured < r.Knuth*0.65 || r.Measured > r.Knuth*1.35 {
			t.Errorf("buckets %d: measured %.2f vs Knuth %.2f", r.Buckets, r.Measured, r.Knuth)
		}
	}
	// Fewer buckets → higher α → longer searches.
	if rows[0].Measured <= rows[2].Measured {
		t.Errorf("load sweep not monotone: %+v", rows)
	}
}

func TestSearchOrderSweep(t *testing.T) {
	// fftpde's misses overwhelmingly hit psb PTEs: probing the 64KB
	// table first must beat base-first (§6.3's closing observation).
	row, err := SearchOrderSweep(profile(t, "fftpde"), testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if row.SuperFirstLines >= row.BaseFirstLines {
		t.Errorf("super-first %.2f ≥ base-first %.2f", row.SuperFirstLines, row.BaseFirstLines)
	}
}

func TestPackedSweep(t *testing.T) {
	row, err := PackedSweep(profile(t, "coral"))
	if err != nil {
		t.Fatal(err)
	}
	// §7: packing reduces hashed size by exactly a third.
	if row.PackedBytes*3 != row.PlainBytes*2 {
		t.Errorf("packed %d vs plain %d, want 2/3", row.PackedBytes, row.PlainBytes)
	}
}

func TestAllWorkloadsRunAllFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix in long mode only")
	}
	cfg := AccessConfig{Refs: 30_000}
	for _, p := range tracedProfiles(t) {
		for _, f := range []Figure{Fig11a, Fig11b, Fig11c, Fig11d} {
			row, err := RunFigure11(f, p, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name, f, err)
			}
			for v, l := range row.AvgLines {
				if l < 0.99 {
					t.Errorf("%s/%s: %s = %.2f below one line", p.Name, f, v, l)
				}
			}
		}
	}
}

func TestLinearNestedMissesAreRare(t *testing.T) {
	// §6.1: with eight reserved entries, 32-bit-footprint workloads
	// rarely (the paper: never) nest-miss on the page-table mappings.
	// Small footprints need ≤8 page-table pages and nest only at cold
	// start; ML's ~17 PT pages shows a small steady-state rate.
	for _, c := range []struct {
		name    string
		maxRate float64 // nested misses per linear-TLB-relevant miss
	}{
		{"nasa7", 0.01}, {"spice", 0.01}, {"ML", 0.20},
	} {
		row, err := RunFigure11(Fig11a, profile(t, c.name), testCfg)
		if err != nil {
			t.Fatal(err)
		}
		rate := float64(row.LinearNested) / float64(row.RefMisses)
		if rate > c.maxRate {
			t.Errorf("%s: nested rate %.4f > %.2f", c.name, rate, c.maxRate)
		}
	}
}

// TestFigure11EntriesAboveReserved pins the TLB-size bound: the linear
// variant reserves 8 entries, so a TLB of 8 or fewer leaves its main
// TLB empty (which the TLB's zero-value default would silently turn
// into 64 entries) or negative, and must be an error rather than a
// panic or a changed model. One entry more runs, under every figure.
func TestFigure11EntriesAboveReserved(t *testing.T) {
	p := profile(t, "gcc")
	for _, c := range []struct {
		entries int
		ok      bool
	}{
		{-1, false}, {4, false}, {8, false}, {9, true},
	} {
		for _, f := range []Figure{Fig11a, Fig11b, Fig11c, Fig11d} {
			_, err := RunFigure11(f, p, AccessConfig{Refs: 2_000, Entries: c.entries})
			if (err == nil) != c.ok {
				t.Errorf("%v/entries=%d: err = %v, want ok=%v", f, c.entries, err, c.ok)
			}
		}
	}
}

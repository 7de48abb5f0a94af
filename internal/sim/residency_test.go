package sim

import "testing"

func TestResidencySmallerTablesStayResident(t *testing.T) {
	// The §6.1 caveat, quantified: the clustered table's smaller
	// footprint keeps more of it in the L2, so the lines it actually
	// misses are at most the lines it touches, and the touched-vs-missed
	// gap must be visible for the compact tables.
	row, err := RunResidency(profile(t, "ML"), ResidencyConfig{Refs: 60_000, CacheBytes: 128 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for name, touched := range row.TouchedPerMiss {
		missedL := row.MissedPerMiss[name]
		if missedL > touched+1e-9 {
			t.Errorf("%s: missed %.2f > touched %.2f", name, missedL, touched)
		}
		if missedL <= 0 {
			t.Errorf("%s: missed = %.2f, competition should evict something", name, missedL)
		}
	}
	// Clustered misses fewer absolute lines than hashed: fewer touched
	// and a smaller, more resident footprint.
	if row.MissedPerMiss["clustered"] >= row.MissedPerMiss["hashed"] {
		t.Errorf("clustered missed %.2f ≥ hashed %.2f",
			row.MissedPerMiss["clustered"], row.MissedPerMiss["hashed"])
	}
}

func TestResidencyDeterministic(t *testing.T) {
	cfg := ResidencyConfig{Refs: 20_000}
	a, err := RunResidency(profile(t, "mp3d"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunResidency(profile(t, "mp3d"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range a.MissedPerMiss {
		if b.MissedPerMiss[k] != v {
			t.Errorf("%s diverged", k)
		}
	}
}

func TestResidencyDataLinesChurn(t *testing.T) {
	// Each reference churns DataLinesPerRef distinct data lines, so more
	// data competition must evict more page-table lines.
	run := func(dataLines int) ResidencyRow {
		t.Helper()
		row, err := RunResidency(profile(t, "ML"), ResidencyConfig{
			Refs: 60_000, CacheBytes: 128 << 10, DataLinesPerRef: dataLines, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return row
	}
	one, three := run(1), run(3)
	for _, name := range []string{"clustered", "hashed"} {
		if three.MissedPerMiss[name] <= one.MissedPerMiss[name] {
			t.Errorf("%s: missed %.4f at 3 data lines/ref, %.4f at 1: extra data lines evict nothing",
				name, three.MissedPerMiss[name], one.MissedPerMiss[name])
		}
	}
}

func TestSwTLBSweepForwardMapped(t *testing.T) {
	// §7: "A software TLB … makes it practical to use a slower
	// forward-mapped page table": with a 4096-entry front-end, most
	// misses cost one line instead of the seven-level walk.
	row, err := SwTLBSweep(profile(t, "spice"), "forward-mapped", AccessConfig{Refs: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	if row.RawLines != 7.0 {
		t.Errorf("raw = %.2f", row.RawLines)
	}
	if row.SwLines >= row.RawLines/2 {
		t.Errorf("swTLB lines %.2f, want large reduction from %.2f", row.SwLines, row.RawLines)
	}
	if row.SwHitRate < 0.5 {
		t.Errorf("swTLB hit rate %.2f", row.SwHitRate)
	}
}

func TestSwTLBSweepUnknownTable(t *testing.T) {
	if _, err := SwTLBSweep(profile(t, "spice"), "bogus", AccessConfig{Refs: 1000}); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestGuardedSweep(t *testing.T) {
	// §2: guarded page tables compress the fixed walk but still need
	// many levels — between hashing and the full seven.
	row, err := GuardedSweep(profile(t, "gcc"))
	if err != nil {
		t.Fatal(err)
	}
	if row.FixedLines != 7.0 {
		t.Errorf("fixed = %.2f", row.FixedLines)
	}
	if row.GuardedLines >= row.FixedLines {
		t.Errorf("guarded %.2f not compressed below %.2f", row.GuardedLines, row.FixedLines)
	}
	if row.GuardedLines <= row.HashedLines {
		t.Errorf("guarded %.2f beats hashed %.2f: §2 says it should not", row.GuardedLines, row.HashedLines)
	}
	if row.GuardedMax > 13 {
		t.Errorf("max depth %d beyond the 13-step bound", row.GuardedMax)
	}
}

func TestVerifyClaimsAllPass(t *testing.T) {
	claims, err := VerifyClaims(40_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(claims) < 14 {
		t.Fatalf("claims = %d", len(claims))
	}
	for _, c := range claims {
		if !c.Pass {
			t.Errorf("claim %s failed: %s (%s)", c.ID, c.Text, c.Detail)
		}
	}
}

func TestSPIndexSweep(t *testing.T) {
	// §4.2's three ways to store superpage PTEs in hash-based tables,
	// on pthor (mixed superpages and base pages): superpage-index
	// hashing avoids the second probe but pays longer chains; clustered
	// beats both.
	row, err := SPIndexSweep(profile(t, "pthor"), AccessConfig{Refs: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	if row.ClusteredLines > row.SPIndexLines+1e-9 {
		t.Errorf("clustered %.2f > sp-index %.2f", row.ClusteredLines, row.SPIndexLines)
	}
	if row.ClusteredLines > row.MultiLines+1e-9 {
		t.Errorf("clustered %.2f > multi %.2f", row.ClusteredLines, row.MultiLines)
	}
	// The long-chain objection: unpromoted regions stack base PTEs on
	// shared buckets.
	if row.SPIndexMaxChain < 4 {
		t.Errorf("sp-index max chain = %d, expected region pileups", row.SPIndexMaxChain)
	}
}

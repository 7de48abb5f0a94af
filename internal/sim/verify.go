package sim

import (
	"fmt"

	"clusterpt/internal/trace"
)

// Claim is one checked reproduction claim: a paper statement, whether the
// simulation reproduces it, and the numbers behind the verdict.
type Claim struct {
	ID     string
	Text   string
	Pass   bool
	Detail string
}

// VerifyClaims re-derives the paper's headline claims from fresh
// simulation runs and checks each one — the reproduction as an
// executable assertion list. Refs controls trace lengths (0 = 120k).
func VerifyClaims(refs int) ([]Claim, error) {
	if refs == 0 {
		refs = 120_000
	}
	cfg := AccessConfig{Refs: refs}
	profiles := trace.Profiles()
	var claims []Claim
	add := func(id, text string, pass bool, detail string, args ...interface{}) {
		claims = append(claims, Claim{ID: id, Text: text, Pass: pass,
			Detail: fmt.Sprintf(detail, args...)})
	}

	// --- Figure 9 claims ---
	fig9, err := Figure9(profiles)
	if err != nil {
		return nil, err
	}
	allBest, worstClu := true, 0.0
	lin6Sparse := 0.0
	for _, r := range fig9 {
		clu := r.Normalized["clustered"]
		if clu > worstClu {
			worstClu = clu
		}
		for _, other := range []string{"linear-6level", "forward-mapped", "hashed"} {
			if clu > r.Normalized[other]+1e-9 {
				allBest = false
			}
		}
		if r.Workload == "compress" {
			lin6Sparse = r.Normalized["linear-6level"]
		}
	}
	add("fig9-clustered-wins",
		"clustered page tables use less memory than realizable conventional tables for all workloads",
		allBest, "worst clustered/hashed = %.3f", worstClu)
	add("fig9-sparse-blowup",
		"multi-level linear page tables blow up for sparse multiprogrammed address spaces (>5x truncated)",
		lin6Sparse > 5, "compress linear-6level = %.2f", lin6Sparse)

	// --- Figure 10 claims ---
	fig10, err := Figure10(profiles)
	if err != nil {
		return nil, err
	}
	var cluAvg float64
	bestSP, bestPSB := 1.0, 1.0
	for _, r := range fig10 {
		cluAvg += r.Normalized["clustered"]
		if v := r.Normalized["clustered+superpage"] / r.Normalized["clustered"]; v < bestSP {
			bestSP = v
		}
		if v := r.Normalized["clustered+psb"] / r.Normalized["clustered"]; v < bestPSB {
			bestPSB = v
		}
	}
	cluAvg /= float64(len(fig10))
	add("fig10-half-of-hashed",
		"clustered page tables use ~50% of the memory of hashed page tables",
		cluAvg > 0.3 && cluAvg < 0.6, "average clustered/hashed = %.3f", cluAvg)
	add("fig10-superpage-reduction",
		"superpage PTEs reduce clustered memory by up to 75%",
		bestSP <= 0.25, "best clustered+superpage/clustered = %.3f", bestSP)
	add("fig10-psb-reduction",
		"partial-subblock PTEs reduce clustered memory by up to 80%",
		bestPSB <= 0.20, "best clustered+psb/clustered = %.3f", bestPSB)

	// --- Figure 11 claims over three representative workloads ---
	// Each workload's Fig 11a row is replayed once: it enters the 11a
	// average and is the single-page-size base of the 11b miss claim.
	fig11a := map[string]AccessRow{}
	run := func(f Figure, name string) (AccessRow, error) {
		if row, ok := fig11a[name]; ok && f == Fig11a {
			return row, nil
		}
		p, _ := trace.ProfileByName(name)
		row, err := RunFigure11(f, p, cfg)
		if err == nil && f == Fig11a {
			fig11a[name] = row
		}
		return row, err
	}
	type agg struct{ lin, fwd, hash, clu float64 }
	average := func(f Figure, names ...string) (agg, uint64, uint64, error) {
		var a agg
		var misses, baseMisses uint64
		for _, n := range names {
			row, err := run(f, n)
			if err != nil {
				return a, 0, 0, err
			}
			a.lin += row.AvgLines["linear"]
			a.fwd += row.AvgLines["forward-mapped"]
			a.hash += row.AvgLines["hashed"]
			a.clu += row.AvgLines["clustered"]
			misses += row.RefMisses
			if f != Fig11a {
				base, err := run(Fig11a, n)
				if err != nil {
					return a, 0, 0, err
				}
				baseMisses += base.RefMisses
			}
		}
		k := float64(len(names))
		a.lin /= k
		a.fwd /= k
		a.hash /= k
		a.clu /= k
		return a, misses, baseMisses, nil
	}

	a11a, _, _, err := average(Fig11a, "coral", "ML", "gcc")
	if err != nil {
		return nil, err
	}
	add("fig11a-forward-unacceptable",
		"forward-mapped page tables cost ~7 memory references per miss: impractical for 64-bit",
		a11a.fwd == 7.0, "forward = %.2f lines/miss", a11a.fwd)
	add("fig11a-others-similar",
		"linear, hashed and clustered designs are all near one line per miss with a single-page-size TLB",
		a11a.lin < 2.5 && a11a.hash < 2.5 && a11a.clu < 1.2,
		"linear %.2f, hashed %.2f, clustered %.2f", a11a.lin, a11a.hash, a11a.clu)

	a11b, spMisses, spBase, err := average(Fig11b, "nasa7", "ML", "spice")
	if err != nil {
		return nil, err
	}
	add("fig11b-miss-reduction",
		"superpage TLBs reduce miss counts by 50% to 99%",
		spMisses*2 <= spBase, "misses %d vs single-page-size %d", spMisses, spBase)
	_ = a11b

	coral, _ := trace.ProfileByName("coral")
	rb, err := RunFigure11(Fig11b, coral, cfg)
	if err != nil {
		return nil, err
	}
	add("fig11b-clustered-no-penalty",
		"clustered page tables service superpage TLB misses without increasing the miss penalty",
		rb.AvgLines["clustered"] < 1.2, "clustered = %.2f lines/miss (coral)", rb.AvgLines["clustered"])
	add("fig11b-hashed-worse",
		"hashed page tables are much worse for superpage-heavy workloads (4KB table searched first)",
		rb.AvgLines["hashed"] > 1.7, "hashed = %.2f lines/miss (coral)", rb.AvgLines["hashed"])

	rd, err := RunFigure11(Fig11d, coral, cfg)
	if err != nil {
		return nil, err
	}
	add("fig11d-hashed-terrible",
		"complete-subblock prefetch costs hashed tables ~16 probes per block miss",
		rd.AvgLines["hashed"] > 14, "hashed = %.2f lines/miss", rd.AvgLines["hashed"])
	add("fig11d-clustered-adjacent",
		"clustered and linear tables prefetch whole blocks from adjacent memory at ~1 line",
		rd.AvgLines["clustered"] < 1.3 && rd.AvgLines["linear"] < 2.6,
		"clustered %.2f, linear %.2f", rd.AvgLines["clustered"], rd.AvgLines["linear"])

	// --- §6.3 line-size arithmetic ---
	ls := LineSizeSweep([]int{128, 64}, 16)
	add("sec63-line-crossing",
		"a factor-16 clustered PTE costs +0.125 lines at 128B lines and +0.625 at 64B lines",
		ls[0].ExtraVsOneLine == 0.125 && ls[1].ExtraVsOneLine == 0.625,
		"+%.3f at 128B, +%.3f at 64B", ls[0].ExtraVsOneLine, ls[1].ExtraVsOneLine)

	// --- Appendix Table 2 exactness, over the Figure 9 rows above (one
	// per profile, in order) ---
	exact := true
	detail := ""
	for i, p := range profiles {
		if fig9[i].Bytes["hashed"] != AnalyticHashedBytes(NactiveProfile(p, 1)) ||
			fig9[i].Bytes["clustered"] != AnalyticClusteredBytes(NactiveProfile(p, 16), 16) {
			exact = false
			detail = p.Name
		}
	}
	add("table2-analytic-exact",
		"the Appendix Table 2 size formulae match the built tables exactly",
		exact, "first mismatch: %q", detail)

	return claims, nil
}

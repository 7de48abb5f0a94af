package sim

// End-to-end benchmarks for the translation hierarchy: the full Figure
// 11a replay under each -mmu pipeline. flat is the pre-hierarchy
// baseline (and must stay within noise of
// BenchmarkFigure11Replay/e64/indexed — the hierarchy plumbing is free
// when unconfigured); l2 adds the per-miss L2 probe and its insert
// traffic; l2+pwc adds the walk-cache probe on the tree-walked
// variants. fused replays all three pipelines in one
// RunFigure11Pipelines pass over a shared L1 stage: the hierarchy
// experiment's cell, to set against the sum of the three separate
// rows. `make bench-mmu` snapshots these plus the internal/mmu
// micro-benchmarks into BENCH_mmu.json. The rows keep their /s1 suffix
// so snapshots stay comparable with those taken when sharded /s4 rows
// sat beside them.

import (
	"testing"

	"clusterpt/internal/trace"
)

func BenchmarkFigure11Hierarchy(b *testing.B) {
	p, ok := trace.ProfileByName("gcc")
	if !ok {
		b.Fatal("no gcc profile")
	}
	var all []MMUConfig
	for _, mode := range []string{"flat", "l2", "l2+pwc"} {
		mcfg, err := ParseMMU(mode)
		if err != nil {
			b.Fatal(err)
		}
		all = append(all, mcfg)
		b.Run(mode+"/s1", func(b *testing.B) {
			cfg := AccessConfig{Refs: 400_000, Seed: 1, Buf: &ReplayBuf{}, MMU: mcfg}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunFigure11(Fig11a, p, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("fused/s1", func(b *testing.B) {
		cfg := AccessConfig{Refs: 400_000, Seed: 1, Buf: &ReplayBuf{}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := RunFigure11Pipelines(Fig11a, p, cfg, all); err != nil {
				b.Fatal(err)
			}
		}
	})
}

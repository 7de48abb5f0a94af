package sim

// End-to-end replay benchmarks for the reference fast path: the full
// Figure 11a pipeline — buffered generation, TLB probe, miss service
// across all four page-table variants, dense line accounting — from the
// 64-entry base case through 1024 entries. The rows keep their /indexed
// suffix so snapshots stay comparable with those taken when a
// linear-scan TLB mode sat beside it. The fig11d rows replay Figure 11d
// instead: a complete-subblock TLB whose block misses gather a whole
// page block from every organization (§4.4), the only rows that
// exercise the BlockReader path. `make bench-replay` snapshots these
// into BENCH_replay.json.

import (
	"fmt"
	"testing"

	"clusterpt/internal/trace"
)

func benchmarkFigure11(b *testing.B, f Figure, cfg AccessConfig) {
	p, ok := trace.ProfileByName("gcc")
	if !ok {
		b.Fatal("no gcc profile")
	}
	cfg.Refs, cfg.Seed, cfg.Buf = 400_000, 1, &ReplayBuf{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunFigure11(f, p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure11Replay(b *testing.B) {
	for _, entries := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("e%d/indexed", entries), func(b *testing.B) {
			benchmarkFigure11(b, Fig11a, AccessConfig{Entries: entries})
		})
	}
	b.Run("fig11d/e64", func(b *testing.B) {
		benchmarkFigure11(b, Fig11d, AccessConfig{Entries: 64})
	})
}

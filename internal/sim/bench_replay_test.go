package sim

// End-to-end replay benchmarks for the reference fast path: the full
// Figure 11a pipeline — buffered generation, TLB probe, miss service
// across all four page-table variants, dense line accounting — from the
// 64-entry base case through 1024 entries. The rows keep their /indexed
// suffix so snapshots stay comparable with those taken when a
// linear-scan TLB mode sat beside it. `make bench-replay` snapshots
// these into BENCH_replay.json.

import (
	"fmt"
	"testing"

	"clusterpt/internal/trace"
)

func benchmarkFigure11(b *testing.B, entries int) {
	p, ok := trace.ProfileByName("gcc")
	if !ok {
		b.Fatal("no gcc profile")
	}
	cfg := AccessConfig{Refs: 400_000, Entries: entries, Seed: 1, Buf: &ReplayBuf{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunFigure11(Fig11a, p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure11Replay(b *testing.B) {
	for _, entries := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("e%d/indexed", entries), func(b *testing.B) {
			benchmarkFigure11(b, entries)
		})
	}
}

// BenchmarkFigure11Sharded measures the fan-out/merge pipeline against
// the serial baseline above (Figure11Replay/e64/indexed): the same
// Figure 11a run at lane counts 1 through 8. s1 is the serial loop via
// the dispatch fallthrough; s2+ split the replay across the driver,
// linear, and walk lanes with memoized pure lookups, which is where the
// speedup comes from even on a single core.
func BenchmarkFigure11Sharded(b *testing.B) {
	p, ok := trace.ProfileByName("gcc")
	if !ok {
		b.Fatal("no gcc profile")
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("s%d", shards), func(b *testing.B) {
			cfg := AccessConfig{Refs: 400_000, Seed: 1, Shards: shards, Buf: &ReplayBuf{}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunFigure11(Fig11a, p, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

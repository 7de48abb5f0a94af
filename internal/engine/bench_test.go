package engine

import (
	"context"
	"io"
	"testing"
)

// ledgerRefs is the reference budget of the end-to-end ledger: the
// engine's default, which is also the budget ptbench runs and pins its
// digests at.
const ledgerRefs = 400_000

// BenchmarkExperiment times every registered experiment end to end
// through the engine, one sub-benchmark per experiment in "all" order,
// at the ledger budget with the default seed and worker pool. `make
// bench-e2e` snapshots it into BENCH_e2e.json: wall (ns/op), B/op and
// allocs/op per experiment. The concurrent-* rows run fixed-length
// timing ladders, so their wall time does not scale with the budget.
func BenchmarkExperiment(b *testing.B) {
	for _, name := range Default().Names() {
		b.Run(name, func(b *testing.B) {
			eng := New(Options{Refs: ledgerRefs, Log: io.Discard})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(context.Background(), name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Benchmark harness: micro-benchmarks of the core operations and the
// service layer, plus the analytic model and the sensitivity sweeps,
// which report their swept quantities via b.ReportMetric. Whole
// experiments (every table and figure of §6) are timed by
// BenchmarkExperiment/<name> in internal/engine, and the paper's claims
// are pinned by sim's TestVerifyClaimsAllPass.
package clusterpt_test

import (
	"fmt"
	"testing"

	"clusterpt"
	"clusterpt/internal/core"
	"clusterpt/internal/hashed"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/service"
	"clusterpt/internal/sim"
	"clusterpt/internal/tlb"
	"clusterpt/internal/trace"
)

func BenchmarkTable2Analytic(b *testing.B) {
	p, _ := trace.ProfileByName("coral")
	var pages []clusterpt.VPN
	for _, s := range p.Snapshot() {
		pages = append(pages, s.AllPages()...)
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = sim.AnalyticHashedBytes(sim.Nactive(pages, 1)) +
			sim.AnalyticClusteredBytes(sim.Nactive(pages, 16), 16) +
			sim.AnalyticLinearBytes(pages, 6) +
			sim.AnalyticForwardBytes(pages, []uint{4, 8, 8, 8, 8, 8, 8})
	}
	_ = sink
}

func BenchmarkLineSizeSensitivity(b *testing.B) {
	var rows []sim.LineSizeRow
	for i := 0; i < b.N; i++ {
		rows = sim.LineSizeSweep([]int{256, 128, 64}, 16)
	}
	for _, r := range rows {
		b.ReportMetric(r.ExtraVsOneLine, fmt.Sprintf("extra@%dB", r.LineSize))
	}
}

func BenchmarkSubblockSweep(b *testing.B) {
	p, _ := trace.ProfileByName("gcc")
	var rows []sim.SubblockRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = sim.SubblockSweep(p, []int{4, 8, 16, 32})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.NormalizedSize, fmt.Sprintf("size@s%d", r.Factor))
	}
}

func BenchmarkLoadFactorSweep(b *testing.B) {
	p, _ := trace.ProfileByName("ML")
	var rows []sim.LoadFactorRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = sim.LoadFactorSweep(p, []int{256, 1024, 4096})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Measured, fmt.Sprintf("nodes@b%d", r.Buckets))
	}
}

// --- Micro-benchmarks of the core data structure ---

func buildClustered(b *testing.B, pages int) *clusterpt.Table {
	b.Helper()
	pt := clusterpt.New(clusterpt.Config{})
	for i := 0; i < pages; i++ {
		if err := pt.Map(clusterpt.VPN(i), clusterpt.PPN(i), clusterpt.AttrR); err != nil {
			b.Fatal(err)
		}
	}
	return pt
}

func BenchmarkClusteredLookup(b *testing.B) {
	pt := buildClustered(b, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := clusterpt.VAOf(clusterpt.VPN(i & 4095))
		if _, _, ok := pt.Lookup(va); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkClusteredMapUnmap(b *testing.B) {
	pt := clusterpt.New(clusterpt.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vpn := clusterpt.VPN(i & 0xffff)
		if err := pt.Map(vpn, clusterpt.PPN(i&0xffff), clusterpt.AttrR); err != nil {
			b.Fatal(err)
		}
		if err := pt.Unmap(vpn); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusteredProtectRange(b *testing.B) {
	pt := buildClustered(b, 4096)
	r := clusterpt.PageRange(0, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set, clear := clusterpt.AttrRef, clusterpt.Attr(0)
		if i%2 == 1 {
			set, clear = 0, clusterpt.AttrRef
		}
		if _, err := pt.ProtectRange(r, set, clear); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusteredPromote(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pt := clusterpt.New(clusterpt.Config{})
		for j := clusterpt.VPN(0); j < 16; j++ {
			pt.Map(0x40+j, 0x100+clusterpt.PPN(j), clusterpt.AttrR)
		}
		b.StartTimer()
		if got := pt.TryPromote(4); got != clusterpt.PromoteSuperpage {
			b.Fatalf("promotion = %v", got)
		}
	}
}

func BenchmarkTLBAccessHit(b *testing.B) {
	tl := tlb.MustNew(tlb.Config{})
	pt := buildClustered(b, 64)
	for i := clusterpt.VPN(0); i < 64; i++ {
		e, _, _ := pt.Lookup(clusterpt.VAOf(i))
		tl.Insert(e)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !tl.Access(clusterpt.VAOf(clusterpt.VPN(i & 63))).Hit {
			b.Fatal("miss")
		}
	}
}

func BenchmarkResidencyAblation(b *testing.B) {
	p, _ := trace.ProfileByName("ML")
	var row sim.ResidencyRow
	var err error
	for i := 0; i < b.N; i++ {
		row, err = sim.RunResidency(p, sim.ResidencyConfig{Refs: 30_000, CacheBytes: 128 << 10})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.MissedPerMiss["clustered"], "clustered-missed/miss")
	b.ReportMetric(row.MissedPerMiss["hashed"], "hashed-missed/miss")
}

func BenchmarkSwTLBFrontEnd(b *testing.B) {
	p, _ := trace.ProfileByName("spice")
	var row sim.SwTLBRow
	var err error
	for i := 0; i < b.N; i++ {
		row, err = sim.SwTLBSweep(p, "forward-mapped", sim.AccessConfig{Refs: 30_000})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.RawLines, "raw-lines/miss")
	b.ReportMetric(row.SwLines, "swtlb-lines/miss")
}

func BenchmarkTieredLookup(b *testing.B) {
	pt, err := clusterpt.NewTiered(clusterpt.Config{})
	if err != nil {
		b.Fatal(err)
	}
	// A 1MB superpage plus base pages: alternate fine and coarse hits.
	if err := pt.MapSuperpage(0x100000, 0x200000, clusterpt.AttrR, clusterpt.Size1M); err != nil {
		b.Fatal(err)
	}
	for i := clusterpt.VPN(0); i < 256; i++ {
		if err := pt.Map(i, clusterpt.PPN(i), clusterpt.AttrR); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var va clusterpt.VA
		if i%2 == 0 {
			va = clusterpt.VAOf(clusterpt.VPN(i & 255))
		} else {
			va = clusterpt.VAOf(0x100000 + clusterpt.VPN(i&255))
		}
		if _, _, ok := pt.Lookup(va); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkSharedLookup(b *testing.B) {
	s, err := clusterpt.NewShared(clusterpt.Config{}, 48)
	if err != nil {
		b.Fatal(err)
	}
	for asid := clusterpt.ASID(0); asid < 8; asid++ {
		for i := clusterpt.VPN(0); i < 128; i++ {
			if err := s.Map(asid, i, clusterpt.PPN(asid)<<16|clusterpt.PPN(i), clusterpt.AttrR); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		asid := clusterpt.ASID(i & 7)
		va := clusterpt.VAOf(clusterpt.VPN(i & 127))
		if _, _, ok := s.Lookup(asid, va); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkAddressSpaceFault(b *testing.B) {
	pt := clusterpt.New(clusterpt.Config{})
	alloc, err := clusterpt.NewAllocator(uint64((b.N+16)/16*16+64), 4)
	if err != nil {
		b.Fatal(err)
	}
	space := clusterpt.NewAddressSpace(pt, alloc, clusterpt.Policy{UseSuperpages: true, UsePartial: true})
	r := clusterpt.Range{Start: 0x100000, Len: uint64(b.N+1) * 4096}
	if err := space.Reserve(r, clusterpt.AttrR|clusterpt.AttrW, "bench"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := space.Touch(r.Start + clusterpt.VA(i*4096)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGuardedSweep(b *testing.B) {
	p, _ := trace.ProfileByName("gcc")
	var row sim.GuardedRow
	var err error
	for i := 0; i < b.N; i++ {
		row, err = sim.GuardedSweep(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.GuardedLines, "guarded-lines")
	b.ReportMetric(row.FixedLines, "fixed-lines")
}

func BenchmarkMultiprogram(b *testing.B) {
	p, _ := trace.ProfileByName("compress")
	var row sim.MultiprogramRow
	var err error
	for i := 0; i < b.N; i++ {
		row, err = sim.RunMultiprogram(p, 50, 60_000, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(row.FlushMisses)/float64(row.IsolatedMisses), "flush/isolated")
}

func BenchmarkSPIndexSweep(b *testing.B) {
	p, _ := trace.ProfileByName("pthor")
	var row sim.SPIndexRow
	var err error
	for i := 0; i < b.N; i++ {
		row, err = sim.SPIndexSweep(p, sim.AccessConfig{Refs: 30_000})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.SPIndexLines, "spindex-lines/miss")
	b.ReportMetric(row.ClusteredLines, "clustered-lines/miss")
}

// --- Concurrent service layer: serial vs parallel translation path ---

// buildService wraps a freshly populated organization in the concurrent
// service layer. 4096 resident pages matches the working set of the
// serial BenchmarkClusteredLookup above, so the serial/parallel pairs and
// the raw-table baseline are directly comparable.
func buildService(b *testing.B, tab pagetable.PageTable) *service.Service {
	b.Helper()
	svc := service.MustWrap(tab, service.Config{})
	if n, err := svc.MapRange(0, 0x4000, 4096, clusterpt.AttrR); err != nil || n != 4096 {
		b.Fatalf("MapRange = %d, %v", n, err)
	}
	return svc
}

func benchServiceLookupSerial(b *testing.B, svc *service.Service) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := svc.Lookup(clusterpt.VAOf(clusterpt.VPN(i & 4095))); !ok {
			b.Fatal("miss")
		}
	}
}

// benchServiceLookupParallel drives the lock-free lookup fast path from
// GOMAXPROCS goroutines; per-goroutine strides keep the address streams
// distinct while staying inside the shared 4096-page working set.
func benchServiceLookupParallel(b *testing.B, svc *service.Service) {
	b.Helper()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok := svc.Lookup(clusterpt.VAOf(clusterpt.VPN(i * 31 & 4095))); !ok {
				b.Fatal("miss")
			}
			i++
		}
	})
}

func BenchmarkServiceClusteredLookupSerial(b *testing.B) {
	benchServiceLookupSerial(b, buildService(b, core.MustNew(core.Config{Buckets: 4096})))
}

func BenchmarkServiceClusteredLookupParallel(b *testing.B) {
	benchServiceLookupParallel(b, buildService(b, core.MustNew(core.Config{Buckets: 4096})))
}

func BenchmarkServiceHashedLookupSerial(b *testing.B) {
	benchServiceLookupSerial(b, buildService(b, hashed.MustNew(hashed.Config{Buckets: 4096})))
}

func BenchmarkServiceHashedLookupParallel(b *testing.B) {
	benchServiceLookupParallel(b, buildService(b, hashed.MustNew(hashed.Config{Buckets: 4096})))
}

// BenchmarkServiceMapUnmapParallel exercises the striped write path under
// contention: goroutines map/unmap overlapping pages, so some operations
// legitimately collide (ErrAlreadyMapped / ErrNotMapped) — the benchmark
// measures lock throughput, not outcome counts.
func BenchmarkServiceMapUnmapParallel(b *testing.B) {
	svc := service.MustWrap(core.MustNew(core.Config{Buckets: 4096}), service.Config{})
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			vpn := clusterpt.VPN(i & 0xffff)
			_ = svc.Map(vpn, clusterpt.PPN(i&0xffff), clusterpt.AttrR)
			_ = svc.Unmap(vpn)
			i++
		}
	})
}

package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"clusterpt/internal/addr"
	"clusterpt/internal/core"
	"clusterpt/internal/forward"
	"clusterpt/internal/hashed"
	"clusterpt/internal/linear"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
	"clusterpt/internal/report"
	"clusterpt/internal/service"
	"clusterpt/internal/trace"
)

// The concurrent-* experiments measure the service layer of
// internal/service: every organization behind one thread-safe interface,
// striped write locks, and a lock-free translation cache on the lookup
// path. Unlike the paper-reproduction experiments, these report wall-clock
// throughput, so their numbers vary run to run and they are excluded from
// the golden-output test; the *structure* (which orgs, which rungs) is
// still deterministic.
//
// Both experiments run their whole ladder inside a single cell: a timing
// ladder fanned across the worker pool would have rungs stealing CPUs
// from each other, and the point is to see scaling, not scheduler noise.

func init() {
	mustRegister(Experiment{
		Name:        "concurrent-lookup",
		Description: "service layer: lookup throughput scaling with goroutine count",
		Timing:      true,
		Run:         runConcurrentLookup,
	})
	mustRegister(Experiment{
		Name:        "concurrent-mixed",
		Description: "service layer: mixed map/unmap/protect/lookup traffic under contention",
		Timing:      true,
		Run:         runConcurrentMixed,
	})
}

// concurrencyOrgs lists the organizations the service wraps, one fresh
// table per call so rungs never see a predecessor's state.
func concurrencyOrgs() []struct {
	name  string
	build func() pagetable.PageTable
} {
	return []struct {
		name  string
		build func() pagetable.PageTable
	}{
		{"clustered", func() pagetable.PageTable {
			return core.MustNew(core.Config{Buckets: 4096})
		}},
		{"hashed", func() pagetable.PageTable {
			return hashed.MustNew(hashed.Config{Buckets: 4096})
		}},
		{"forward-mapped", func() pagetable.PageTable {
			return forward.MustNew(forward.Config{})
		}},
		{"linear-6level", func() pagetable.PageTable {
			return linear.MustNew(linear.Config{})
		}},
	}
}

// prepopulate installs the snapshot's pages through the batched map path:
// one MapRange call per contiguous run within each region, frames handed
// out sequentially — the region-fault pattern batched Map exists for.
func prepopulate(svc *service.Service, snap trace.ProcessSnapshot) error {
	frame := addr.PPN(1 << 20)
	for _, reg := range snap.Regions {
		for i := 0; i < len(reg.Pages); {
			j := i + 1
			for j < len(reg.Pages) && reg.Pages[j] == reg.Pages[j-1]+1 {
				j++
			}
			n := uint64(j - i)
			if _, err := svc.MapRange(reg.Pages[i], frame, n, pte.AttrR|pte.AttrW); err != nil {
				return fmt.Errorf("prepopulate %s: %w", snap.Name, err)
			}
			frame += addr.PPN(n)
			i = j
		}
	}
	return nil
}

// lookupLadder is the goroutine-count ladder both experiments report.
var lookupLadder = []int{1, 2, 4, 8}

// runLookupRung spreads total lookups over g goroutines and returns the
// elapsed wall time. Each goroutine draws pages from its own derived
// stream over the same snapshot, so goroutines contend on the same VPNs.
func runLookupRung(svc *service.Service, pages []addr.VPN, total, g int, seed uint64) time.Duration {
	per := total / g
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := trace.NewRNG(trace.DeriveSeed(seed, fmt.Sprintf("rung-%d-%d", g, w)))
			var sink uint64
			for i := 0; i < per; i++ {
				if e, ok := svc.Lookup(addr.VAOf(pages[rng.Intn(len(pages))])); ok {
					sink += uint64(e.PPN)
				}
			}
			_ = sink
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}

func runConcurrentLookup(ctx context.Context, rc *RunContext) (*Result, error) {
	snap := mustProfile("gcc").ProcSnapshot(0)
	pages := snap.AllPages()
	total := rc.Refs

	type row struct {
		org     string
		mops    []float64
		hitRate float64
	}
	cells := []Cell[[]row]{{
		Key: "concurrent-lookup/ladder",
		Run: func(ctx context.Context, seed uint64) ([]row, error) {
			var rows []row
			for _, org := range concurrencyOrgs() {
				svc, err := service.Wrap(org.build(), service.Config{})
				if err != nil {
					return nil, err
				}
				if err := prepopulate(svc, snap); err != nil {
					return nil, err
				}
				r := row{org: org.name}
				for _, g := range lookupLadder {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
					el := runLookupRung(svc, pages, total, g, seed)
					r.mops = append(r.mops, float64(total)/el.Seconds()/1e6)
					rc.CountRefs(uint64(total))
				}
				r.hitRate = svc.Stats().HitRate()
				rows = append(rows, r)
			}
			return rows, nil
		},
	}}
	res, err := Fan(ctx, rc, cells)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Concurrent service: lookup throughput, gcc snapshot (%d pages, %d lookups/rung)", len(pages), total),
		"organization", "1g Mops/s", "2g Mops/s", "4g Mops/s", "8g Mops/s", "speedup@8", "cache hit")
	for _, r := range res[0] {
		t.Row(r.org,
			fmt.Sprintf("%.1f", r.mops[0]),
			fmt.Sprintf("%.1f", r.mops[1]),
			fmt.Sprintf("%.1f", r.mops[2]),
			fmt.Sprintf("%.1f", r.mops[3]),
			fmt.Sprintf("%.2fx", r.mops[3]/r.mops[0]),
			fmt.Sprintf("%.0f%%", 100*r.hitRate))
	}
	return &Result{Tables: []*report.Table{t}, Notes: []string{
		fmt.Sprintf("wall-clock throughput on GOMAXPROCS=%d; numbers vary run to run, scaling shape is the result", runtime.GOMAXPROCS(0)),
	}}, nil
}

func runConcurrentMixed(ctx context.Context, rc *RunContext) (*Result, error) {
	snap := mustProfile("gcc").ProcSnapshot(0)
	const workers = 8
	total := rc.Refs

	type row struct {
		org  string
		mops float64
		st   service.Stats
	}
	cells := []Cell[[]row]{{
		Key: "concurrent-mixed/storm",
		Run: func(ctx context.Context, seed uint64) ([]row, error) {
			var rows []row
			for _, org := range concurrencyOrgs() {
				svc, err := service.Wrap(org.build(), service.Config{})
				if err != nil {
					return nil, err
				}
				if err := prepopulate(svc, snap); err != nil {
					return nil, err
				}
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				per := total / workers
				var wg sync.WaitGroup
				start := time.Now()
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						stream := trace.NewOpStream(snap, trace.DeriveSeed(seed, fmt.Sprintf("mixed-%d", w)), trace.DefaultOpMix)
						for i := 0; i < per; i++ {
							op := stream.Next()
							switch op.Kind {
							case trace.OpLookup:
								svc.Lookup(addr.VAOf(op.VPN))
							case trace.OpMap:
								_ = svc.Map(op.VPN, op.PPN, op.Attr) //ptlint:allow errdrop op storm tolerates ErrAlreadyMapped conflicts between goroutines by design
							case trace.OpUnmap:
								_ = svc.Unmap(op.VPN) //ptlint:allow errdrop op storm tolerates ErrNotMapped conflicts between goroutines by design
							case trace.OpProtect:
								_ = svc.Protect(op.Range(), op.Set, op.Clear) //ptlint:allow errdrop op storm protects whatever is mapped; races with unmaps are expected
							}
						}
					}(w)
				}
				wg.Wait()
				el := time.Since(start)
				rc.CountRefs(uint64(per * workers))
				rows = append(rows, row{org: org.name, mops: float64(per*workers) / el.Seconds() / 1e6, st: svc.Stats()})
			}
			return rows, nil
		},
	}}
	res, err := Fan(ctx, rc, cells)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Concurrent service: mixed traffic (%d goroutines, %d/%d/%d/%d lookup/map/unmap/protect, %d ops)",
			workers, trace.DefaultOpMix.Lookup, trace.DefaultOpMix.Map, trace.DefaultOpMix.Unmap, trace.DefaultOpMix.Protect, total),
		"organization", "Mops/s", "lookups", "cache hit", "maps", "conflicts", "unmaps", "misses", "protects")
	for _, r := range res[0] {
		t.Row(r.org,
			fmt.Sprintf("%.1f", r.mops),
			r.st.Lookups(),
			fmt.Sprintf("%.0f%%", 100*r.st.HitRate()),
			r.st.Maps, r.st.MapConflicts, r.st.Unmaps, r.st.UnmapMisses, r.st.Protects)
	}
	return &Result{Tables: []*report.Table{t}, Notes: []string{
		"map/unmap outcome split depends on interleaving; totals and coherence are the invariants (see internal/service race tests)",
	}}, nil
}

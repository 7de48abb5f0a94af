package service

// Replicated-service benchmarks, snapshotted by `make bench-replica`
// into BENCH_replica.json. Two curves matter: read scaling (goroutines ×
// replication factor, where R>1 must pull ahead of R=1 once several
// readers contend; R=1 is the plain single-table service), and the
// write-broadcast cost that pays for it (every Map/Unmap locks and
// updates all R replicas).
//
// The read working set is sized well past the per-replica translation
// cache so most lookups take the miss path through the stripe RWMutex —
// the lock whose cache line replication delocalizes. A cache-hit-only
// benchmark would show near-perfect scaling at every factor and hide
// exactly the contention the replication is built to remove.
//
// The read curves only separate on a multi-core host: with GOMAXPROCS=1
// the goroutines timeslice one CPU, no lock cache line ever bounces
// between cores, and every (R, g) point collapses to the serial cost.
// The checked-in snapshot records whatever machine ran it — read its
// context block before comparing curves.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/core"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
)

const (
	benchPages = 4096
	benchBase  = addr.VPN(0x1000)
)

func benchReplicated(b *testing.B, replicas int) *Service {
	b.Helper()
	r := mustNew(b, Config{Stripes: 64, CacheSlots: 256, Replicas: replicas},
		func() pagetable.PageTable { return core.MustNew(core.Config{Buckets: 4096}) })
	for i := 0; i < benchPages; i++ {
		if err := r.Map(benchBase+addr.VPN(i), addr.PPN(0x8000+i), pte.AttrR); err != nil {
			b.Fatal(err)
		}
	}
	return r
}

// BenchmarkReplicatedRead sweeps readers × replication factor. Each
// goroutine binds to its own node (goroutine g → node g), so at R>=g
// every reader owns a private replica — private stripe locks, private
// cache slots — while at R=1 all of them serialize on one table's
// stripes.
func BenchmarkReplicatedRead(b *testing.B) {
	for _, replicas := range []int{1, 2, 4, 8} {
		for _, readers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("R%d/g%d", replicas, readers), func(b *testing.B) {
				r := benchReplicated(b, replicas)
				b.ReportAllocs()
				b.ResetTimer()
				var lost atomic.Uint64
				var wg sync.WaitGroup
				per := b.N/readers + 1
				for g := 0; g < readers; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						node := r.Node(g)
						off := uint64(g * 37)
						for i := 0; i < per; i++ {
							va := addr.VAOf(benchBase + addr.VPN(off%benchPages))
							if _, ok := node.Lookup(va); !ok {
								lost.Add(1)
							}
							off += 61 // coprime stride: every page, cache-hostile order
						}
					}(g)
				}
				wg.Wait()
				if n := lost.Load(); n != 0 {
					b.Fatalf("%d lookups missed a mapped page", n)
				}
			})
		}
	}
}

// BenchmarkReplicatedWrite measures the broadcast write path: each
// Map/Unmap pair locks the stripe on every replica in order, applies,
// bumps the sequence stamps and invalidates — so ns/op should climb
// roughly linearly with the factor. This is the cost curve the
// replication experiment's shootdown model prices in lines.
func BenchmarkReplicatedWrite(b *testing.B) {
	for _, replicas := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("R%d", replicas), func(b *testing.B) {
			r := benchReplicated(b, replicas)
			// Write into a window above the read set so the pairs never
			// collide with the populated pages.
			base := benchBase + benchPages
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vpn := base + addr.VPN((i>>1)&1023)
				if i&1 == 0 {
					if err := r.Map(vpn, addr.PPN(0x20000+(i&1023)), pte.AttrR|pte.AttrW); err != nil {
						b.Fatal(err)
					}
				} else if err := r.Unmap(vpn); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package service

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clusterpt/internal/addr"
	"clusterpt/internal/core"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
)

// TestRaceSeqlockTornRead races fillers of two VPNs that share one cache
// slot, with distinct PPNs, against readers: a hit must never pair one
// VPN's tag with the other's word or subblock offset. The two entries
// differ in every packed field — kind, frame, attributes, offset — so
// any torn combination decodes to a wrong entry.
func TestRaceSeqlockTornRead(t *testing.T) {
	const rounds = 20000
	t.Run("slot", func(t *testing.T) {
		want := [2]pte.Entry{
			pte.EntryFromWord(pte.MakePartial(0x400, pte.AttrR, 0x0f0f, 4), 0x1233, 3),
			pte.EntryFromWord(pte.MakeSuperpage(0x800, pte.AttrR|pte.AttrW|pte.AttrX, addr.Size64K), 0x5675, 0),
		}
		var c slot
		var hits [2]atomic.Uint64
		// Writers run until every reader is done, and each reader runs
		// until it has seen both entries, so the race is never vacuous
		// however the scheduler interleaves the goroutines.
		stop := make(chan struct{})
		var writers, readers sync.WaitGroup
		for g := 0; g < 2; g++ {
			writers.Add(1)
			go func(g int) { // filler; the second starts on the other VPN
				defer writers.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					c.fill(want[(i+g)&1])
				}
			}(g)
		}
		writers.Add(1)
		go func() { // dropper: the invalidation path races the fills too
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.drop(want[i&1].VPN)
				runtime.Gosched()
			}
		}()
		deadline := time.Now().Add(time.Minute)
		for g := 0; g < 2; g++ {
			readers.Add(1)
			go func(g int) {
				defer readers.Done()
				for i := 0; i < rounds || hits[0].Load() == 0 || hits[1].Load() == 0; i++ {
					if i%4096 == 0 && time.Now().After(deadline) {
						t.Errorf("hits %d/%d after a minute: the readers never saw both fills", hits[0].Load(), hits[1].Load())
						return
					}
					k := (i + g) & 1
					if w, boff, ok := c.load(want[k].VPN); ok {
						hits[k].Add(1)
						if e := pte.EntryFromWord(w, want[k].VPN, boff); e != want[k] {
							t.Errorf("vpn %#x read %+v, want %+v", uint64(want[k].VPN), e, want[k])
							return
						}
					}
				}
			}(g)
		}
		readers.Wait()
		close(stop)
		writers.Wait()
	})
	t.Run("service", func(t *testing.T) {
		// A one-slot cache: both pages contend for the same slot through
		// the real fill and hit paths.
		s := mustNew(t, Config{Stripes: 16, CacheSlots: 1, Replicas: 2},
			func() pagetable.PageTable { return core.MustNew(core.Config{Buckets: 256}) })
		pages := [2]addr.VPN{0x1233, 0x5675}
		for i, vpn := range pages {
			if err := s.Map(vpn, addr.PPN(0x100+i), pte.Attr(i)); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				n := s.Node(g)
				for i := 0; i < rounds/4; i++ {
					k := (i + g) & 1
					if e, ok := n.Lookup(addr.VAOf(pages[k])); !ok || e.PPN != addr.PPN(0x100+k) || e.Attr != pte.Attr(k) {
						t.Errorf("vpn %#x read %+v (ok %v), want ppn %#x", uint64(pages[k]), e, ok, 0x100+k)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

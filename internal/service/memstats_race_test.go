package service

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/core"
	"clusterpt/internal/forward"
	"clusterpt/internal/hashed"
	"clusterpt/internal/linear"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
)

// TestRaceMemStats drives concurrent arena alloc/free through the
// service while readers poll MemStats. The arenas publish their stats
// through atomics, so the readers must never block writers, tear a
// word, or trip the race detector; after quiesce the measured live
// object count must agree with the table's own node accounting, and a
// Reset must leave the table refillable with zero live bytes.
func TestRaceMemStats(t *testing.T) {
	cfg := Config{Stripes: 16, CacheSlots: 128}
	for _, s := range []*Service{
		MustWrap(core.MustNew(core.Config{Buckets: 64}), cfg),
		MustWrap(hashed.MustNew(hashed.Config{Buckets: 64}), cfg),
		MustWrap(forward.MustNew(forward.Config{}), cfg),
		MustWrap(linear.MustNew(linear.Config{}), cfg),
	} {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			t.Parallel()
			// A Reset table must look exactly like a fresh one — which for
			// forward tables means one structural root node, not zero.
			freshMS, freshSz := s.MemStats(), s.Table().Size()
			for round := 0; round < 2; round++ {
				stressMemStats(t, s)
				s.Reset()
				if ms := s.MemStats(); ms.LiveBytes() != freshMS.LiveBytes() || ms.LiveObjects() != freshMS.LiveObjects() {
					t.Fatalf("round %d: after Reset live %d bytes / %d objects, fresh table had %d / %d",
						round, ms.LiveBytes(), ms.LiveObjects(), freshMS.LiveBytes(), freshMS.LiveObjects())
				}
				if st := s.Table().Size(); st.Mappings != freshSz.Mappings || st.Nodes != freshSz.Nodes {
					t.Fatalf("round %d: after Reset table size %+v, fresh was %+v", round, st, freshSz)
				}
			}
		})
	}
}

func stressMemStats(t *testing.T, s *Service) {
	t.Helper()
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	steps := 2000
	if testing.Short() {
		steps = 400
	}

	var stop atomic.Bool
	var readers, writers sync.WaitGroup
	// Readers: hammer MemStats concurrently with the churn below.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				ms := s.MemStats()
				// Monotone counters can be read mid-update, but each cell
				// is a single atomic word: allocs can never trail frees by
				// more than the writers in flight could explain, and no
				// value can go negative (they are unsigned — a huge value
				// here means an underflow bug in the arena accounting).
				if ms.Nodes.LiveBytes > ms.Nodes.SlabBytes+1<<30 {
					t.Errorf("torn stats: live %d slab %d", ms.Nodes.LiveBytes, ms.Nodes.SlabBytes)
					return
				}
			}
		}()
	}
	// Writers: disjoint VPN ranges so every map succeeds and every page
	// is unmapped again — maximal alloc/free churn, deterministic end
	// state (empty table).
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			base := addr.VPN(uint64(w) << 24)
			for i := 0; i < steps; i++ {
				vpn := base + addr.VPN(uint64(i%97)*3)
				if err := s.Map(vpn, addr.PPN(i+1), pte.AttrR); err != nil {
					errc <- fmt.Errorf("worker %d map %#x: %w", w, uint64(vpn), err)
					return
				}
				s.Lookup(addr.VAOf(vpn))
				if err := s.Unmap(vpn); err != nil {
					errc <- fmt.Errorf("worker %d unmap %#x: %w", w, uint64(vpn), err)
					return
				}
			}
		}(w)
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Quiesced: all pages unmapped, so nothing is live beyond structural
	// nodes the organization retains (forward keeps only its root).
	ms := s.MemStats()
	sz := s.Table().Size()
	if sz.Mappings != 0 {
		t.Fatalf("expected empty table, got %+v", sz)
	}
	if _, ok := s.Table().(pagetable.MemReporter); ok {
		if ms.LiveObjects() > sz.Nodes+1 {
			t.Errorf("measured %d live objects, table reports %d nodes", ms.LiveObjects(), sz.Nodes)
		}
	}
}

package service

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/trace"
)

// The race storm: 15 goroutines over one Service — eight readers pinned
// one per node across every replica, seven writers alternating between
// the interface and node-bound origins — for the race detector.
//
// Correctness of *results* under contention is intentionally weak here
// (concurrent map/unmap of one page can land in either order); the
// strong sequential guarantees live in oracle_test.go. What must hold
// even under races: no panic, no torn reads or counters, errors
// restricted to the two expected mapping races, and after quiesce no
// stale cache entry and no replica divergence.

func stressService(t *testing.T, s *Service) {
	t.Helper()
	const readers, writers = 8, 7
	steps := 4000
	if testing.Short() {
		steps = 800
	}
	snap := gccSnapshot(t)

	var wg sync.WaitGroup
	errc := make(chan error, writers)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			node := s.Node(w % s.Nodes())
			stream := trace.NewOpStream(snap, trace.DeriveSeed(99, fmt.Sprintf("reader-%d", w)), trace.OpMix{Lookup: 100})
			for i := 0; i < 2*steps; i++ {
				node.Lookup(addr.VAOf(stream.Next().VPN))
			}
		}(w)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Per-goroutine seeds over the *same* snapshot: streams touch
			// the same pages, which is the contention under test.
			var sf surface = s
			if w%2 == 1 {
				sf = s.Node((w * 3) % s.Nodes())
			}
			stream := trace.NewOpStream(snap, trace.DeriveSeed(7, fmt.Sprintf("writer-%d", w)), trace.WriteHeavyMix)
			for i := 0; i < steps; i++ {
				op := stream.Next()
				switch op.Kind {
				case trace.OpLookup:
					sf.Lookup(addr.VAOf(op.VPN))
				case trace.OpMap:
					if err := sf.Map(op.VPN, op.PPN, op.Attr); err != nil && !errors.Is(err, pagetable.ErrAlreadyMapped) {
						errc <- fmt.Errorf("map %#x: %w", uint64(op.VPN), err)
						return
					}
				case trace.OpUnmap:
					if err := sf.Unmap(op.VPN); err != nil && !errors.Is(err, pagetable.ErrNotMapped) {
						errc <- fmt.Errorf("unmap %#x: %w", uint64(op.VPN), err)
						return
					}
				case trace.OpProtect:
					if err := sf.Protect(op.Range(), op.Set, op.Clear); err != nil {
						errc <- fmt.Errorf("protect %#x+%d: %w", uint64(op.VPN), op.Pages, err)
						return
					}
				}
				if i%256 == 255 {
					sf.Demote(op.VPN)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Post-quiesce: every replica converged, translation for translation.
	auditReplicated(t, s, "post-storm")
	for _, vpn := range snap.AllPages() {
		e0, _, ok0 := s.replicas[0].table.Lookup(addr.VAOf(vpn))
		for i, rep := range s.replicas[1:] {
			ei, _, oki := rep.table.Lookup(addr.VAOf(vpn))
			if oki != ok0 || (ok0 && (ei.PPN != e0.PPN || ei.Attr != e0.Attr)) {
				t.Fatalf("replica %d diverged at %#x: (%#x,%v,%v) vs (%#x,%v,%v)",
					i+1, uint64(vpn), uint64(ei.PPN), ei.Attr, oki, uint64(e0.PPN), e0.Attr, ok0)
			}
		}
	}
	if st := s.Stats(); st.Lookups() == 0 || st.Maps == 0 || st.Unmaps == 0 {
		t.Errorf("storm did not exercise every path: %+v", st)
	}
}

// stormCfg forces real lock and slot contention with small stripe and
// cache-slot counts.
var stormCfg = Config{Stripes: 16, CacheSlots: 128}

// TestRaceStress runs the storm against every organization at
// replication factor 1.
func TestRaceStress(t *testing.T) {
	for _, org := range oracleOrgs {
		t.Run(org.build().Name(), func(t *testing.T) {
			t.Parallel()
			stressService(t, mustNew(t, stormCfg, org.build))
		})
	}
}

// TestRaceReplicated runs the storm at replication factors 2, 4 and 8
// against every organization; the quiesced audit must find the replicas
// converged.
func TestRaceReplicated(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("r%d", n), func(t *testing.T) {
			t.Parallel()
			cfg := stormCfg
			cfg.Replicas = n
			for _, org := range oracleOrgs {
				t.Run(org.build().Name(), func(t *testing.T) {
					stressService(t, mustNew(t, cfg, org.build))
				})
			}
		})
	}
}

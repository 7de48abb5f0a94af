package service

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
	"clusterpt/internal/trace"
)

// The churn race stress: 16 goroutines replay trace.ChurnStream op
// batches — whole-range maps, unmaps, touch sweeps — against one
// service, all over the same layout so the streams collide on the same
// pages and blocks constantly. Where the race storm's OpStream mixes
// single-page ops, the churn streams hit the service with the range
// shapes the dynamic replay uses (MapRange across block boundaries,
// partial-block unmaps), which is exactly where striped locking and
// cache invalidation earn their keep. Run under -race in CI.

func stressChurnService(t *testing.T, s *Service) {
	t.Helper()
	const workers = 16
	snap := gccSnapshot(t)
	cp, ok := trace.ChurnProfileByName("slab")
	if !ok {
		t.Fatal("no slab churn profile")
	}
	epochs := 3 * cp.Epochs
	if testing.Short() {
		epochs = cp.Epochs
	}

	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Per-goroutine seeds over the same snapshot: every stream's
			// arenas and chunks tile the same layout, so ops collide.
			stream := trace.NewChurnStream(snap, trace.DeriveSeed(7, fmt.Sprintf("churn-%d", w)), cp)
			var buf []trace.ChurnOp
			for e := 0; e < epochs; e++ {
				buf = stream.NextEpoch(buf)
				for _, op := range buf {
					r := op.Range()
					switch op.Kind {
					case trace.ChurnMap:
						vpn := r.FirstVPN()
						if _, err := s.MapRange(vpn, addr.PPN(vpn), op.Pages, pte.AttrR|pte.AttrW); err != nil && !errors.Is(err, pagetable.ErrAlreadyMapped) {
							errc <- fmt.Errorf("maprange %#x+%d: %w", uint64(vpn), op.Pages, err)
							return
						}
					case trace.ChurnUnmap:
						var err error
						r.Pages(func(vpn addr.VPN) bool {
							if e := s.Unmap(vpn); e != nil && !errors.Is(e, pagetable.ErrNotMapped) {
								err = fmt.Errorf("unmap %#x: %w", uint64(vpn), e)
								return false
							}
							return true
						})
						if err != nil {
							errc <- err
							return
						}
					case trace.ChurnTouch, trace.ChurnDemote:
						// The service has no promote/demote verbs; both become
						// lookup sweeps, which keeps the cache hot and racing.
						r.Pages(func(vpn addr.VPN) bool {
							s.Lookup(addr.VAOf(vpn))
							return true
						})
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Post-quiesce audits: surviving cache entries agree with the table
	// and incremental size accounting matches a ground-truth walk,
	auditReplicated(t, s, "post-churn")
	// and measured memory is coherent (no torn arena stats).
	ms := s.MemStats()
	if ms.Nodes.Frees > ms.Nodes.Allocs || ms.Payload.Frees > ms.Payload.Allocs {
		t.Errorf("MemStats frees exceed allocs: %+v", ms)
	}
	st := s.Stats()
	if st.Lookups() == 0 || st.Maps == 0 || st.Unmaps == 0 {
		t.Errorf("churn stress did not exercise all paths: %+v", st)
	}
}

// TestRaceChurnStress runs the churn storm against every organization.
func TestRaceChurnStress(t *testing.T) {
	for _, org := range oracleOrgs {
		s := MustWrap(org.build(), Config{Stripes: 16, CacheSlots: 128})
		t.Run(s.Name(), func(t *testing.T) {
			t.Parallel()
			stressChurnService(t, s)
		})
	}
}

package service

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/forward"
	"clusterpt/internal/memcost"
	"clusterpt/internal/mmu"
	"clusterpt/internal/mmu/walkcache"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/swtlb"
	"clusterpt/internal/tlb"
	"clusterpt/internal/trace"
)

// The race storm: 15 goroutines over one Service — eight readers pinned
// one per node across every replica, seven writers alternating between
// the interface and node-bound origins — for the race detector, with a
// modeled translation hierarchy per replica either absent, attached for
// the whole storm, or toggled on and off by a 16th goroutine. The
// hierarchy models mutate replacement state on every probe, so the
// storm is also the race detector's view of the AttachMMU contract:
// lookups drive Translate from the lock-free hit path and the striped
// fill path, writers forward invalidations, Reset shoots the whole
// hierarchy down.
//
// Correctness of *results* under contention is intentionally weak here
// (concurrent map/unmap of one page can land in either order); the
// strong sequential guarantees live in oracle_test.go. What must hold
// even under races: no panic, no torn reads or counters, errors
// restricted to the two expected mapping races, and after quiesce no
// stale cache entry and no replica divergence.

// newModelMMU builds the full three-level model over table: a 64-entry
// L1, a 256-entry 4-way L2, and a 16-entry page-walk cache when the
// organization exposes upper walk levels.
func newModelMMU(table pagetable.PageTable) *mmu.Shared {
	h := mmu.NewHierarchy(tlb.MustNew(tlb.Config{Kind: tlb.SinglePageSize, Entries: 64}))
	l2 := swtlb.MustNewLevel(swtlb.Config{Entries: 256, Ways: 4, CostModel: memcost.NewModel(0)})
	probe := pagetable.WalkCost{Lines: 1, Probes: 1}
	h.AddLevel(mmu.LevelSpec{Level: l2.AsLevel(), HitCost: probe, MissCost: probe})
	if uw, ok := table.(pagetable.UpperWalker); ok {
		h.SetFilter(walkcache.MustNew(walkcache.Config{Entries: 16}, uw))
	}
	return mmu.NewShared(h)
}

// mmuMode is how a storm drives the per-replica hierarchy models.
type mmuMode int

const (
	bare     mmuMode = iota // no model is ever attached
	attached                // models attached for the whole storm
	toggled                 // a 16th goroutine attaches and detaches them
)

func stressService(t *testing.T, s *Service, mode mmuMode) {
	t.Helper()
	const readers, writers = 8, 7
	steps := 4000
	if testing.Short() {
		steps = 800
	}
	snap := gccSnapshot(t)

	models := make([]*mmu.Shared, len(s.replicas))
	for i, rep := range s.replicas {
		models[i] = newModelMMU(rep.table)
	}
	attach := func(i int) *mmu.Shared { return models[i] }
	if mode == attached {
		s.AttachMMU(attach)
	}
	stop := make(chan struct{})
	var toggler sync.WaitGroup
	if mode == toggled {
		// The toggle sequence starts attached and stays so until the
		// storm has driven a model once: a scheduler that starves the
		// toggler must not leave the whole storm detached.
		s.AttachMMU(attach)
		toggler.Add(1)
		go func() {
			defer toggler.Done()
			for driven := false; !driven; {
				select {
				case <-stop:
					return
				default:
				}
				for _, h := range models {
					driven = driven || h.Stats().Accesses > 0
				}
				runtime.Gosched()
			}
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%2 == 0 {
					s.AttachMMU(attach)
				} else {
					s.AttachMMU(nil)
				}
				runtime.Gosched()
			}
		}()
	}

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
	close(stop)
	toggler.Wait()
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
	if mode == bare {
		return
	}

	// The models' composed counters must still add up.
	s.AttachMMU(attach)
	var accesses uint64
	for i, h := range models {
		if s.MMU(i) != h {
			t.Fatalf("MMU(%d) did not return the attached model", i)
		}
		st := h.Stats()
		if st.Hits+st.Misses != st.Accesses {
			t.Errorf("replica %d: torn hierarchy counters: hits %d + misses %d != accesses %d",
				i, st.Hits, st.Misses, st.Accesses)
		}
		if got := len(h.LevelStats()); got != 2 {
			t.Errorf("replica %d: LevelStats levels = %d, want 2", i, got)
		}
		accesses += st.Accesses
	}
	if accesses == 0 {
		t.Error("storm never drove the attached hierarchies")
	}

	// Reset shoots the models down; afterwards the next lookup must be a
	// full hierarchy miss (nothing survived the shootdown).
	s.Reset()
	if err := s.Map(0x40, 0x80, 0); err != nil {
		t.Fatal(err)
	}
	before := models[0].Stats()
	if _, ok := s.Lookup(addr.VAOf(0x40)); !ok {
		t.Fatal("lost mapping after reset")
	}
	if after := models[0].Stats(); after.Misses != before.Misses+1 {
		t.Errorf("post-shootdown lookup: misses %d -> %d, want a full miss", before.Misses, after.Misses)
	}
}

// stormCfg forces real lock and slot contention with small stripe and
// cache-slot counts.
var stormCfg = Config{Stripes: 16, CacheSlots: 128}

// TestRaceStress runs the bare storm against every organization at
// replication factor 1.
func TestRaceStress(t *testing.T) {
	for _, org := range oracleOrgs {
		t.Run(org.build().Name(), func(t *testing.T) {
			t.Parallel()
			stressService(t, mustNew(t, stormCfg, org.build), bare)
		})
	}
}

// TestRaceReplicated runs the storm with the hierarchy toggler at
// replication factors 2, 4 and 8 against every organization; the
// quiesced audit must find the replicas converged.
func TestRaceReplicated(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("r%d", n), func(t *testing.T) {
			t.Parallel()
			cfg := stormCfg
			cfg.Replicas = n
			for _, org := range oracleOrgs {
				t.Run(org.build().Name(), func(t *testing.T) {
					stressService(t, mustNew(t, cfg, org.build), toggled)
				})
			}
		})
	}
}

// TestRaceMMUStress runs the storm over one forward-mapped table with
// the hierarchy attached for its whole duration, so every operation
// drives the model before the counter and shootdown audit.
func TestRaceMMUStress(t *testing.T) {
	stressService(t, MustWrap(forward.MustNew(forward.Config{}), stormCfg), attached)
}

// TestRaceMMUAttachDetach toggles the attachment while the storm runs:
// AttachMMU is atomic, so traffic must stay well-formed whether a given
// operation observes the model or nil.
func TestRaceMMUAttachDetach(t *testing.T) {
	stressService(t, MustWrap(forward.MustNew(forward.Config{}), stormCfg), toggled)
}

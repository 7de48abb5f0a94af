package service

import (
	"errors"
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/core"
	"clusterpt/internal/forward"
	"clusterpt/internal/memcost"
	"clusterpt/internal/mm"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
)

// mustNew builds a service whose replicas each get a fresh build().
func mustNew(tb testing.TB, cfg Config, build func() pagetable.PageTable) *Service {
	tb.Helper()
	s, err := New(cfg, func(int) (pagetable.PageTable, error) { return build(), nil })
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func newClustered(t *testing.T) *Service {
	t.Helper()
	return MustWrap(core.MustNew(core.Config{Buckets: 256}), Config{
		Stripes: 16, CacheSlots: 64,
	})
}

// newReplicated builds an n-replica service over clustered tables.
func newReplicated(t *testing.T, n int) *Service {
	t.Helper()
	return mustNew(t, Config{Stripes: 16, CacheSlots: 256, Replicas: n},
		func() pagetable.PageTable { return core.MustNew(core.Config{Buckets: 256}) })
}

func TestWrapRejectsBadConfig(t *testing.T) {
	tab := core.MustNew(core.Config{})
	if _, err := Wrap(nil, Config{}); err == nil {
		t.Error("nil table accepted")
	}
	if _, err := Wrap(tab, Config{Stripes: 3}); err == nil {
		t.Error("non-power-of-two stripes accepted")
	}
	if _, err := Wrap(tab, Config{CacheSlots: 12}); err == nil {
		t.Error("non-power-of-two cache accepted")
	}
	if _, err := Wrap(tab, Config{Replicas: 2}); err == nil {
		t.Error("Wrap accepted two replicas of one table")
	}
}

func TestReplicatedConfigValidation(t *testing.T) {
	build := func(int) (pagetable.PageTable, error) {
		return forward.MustNew(forward.Config{}), nil
	}
	if _, err := New(Config{Replicas: 9}, build); err == nil {
		t.Error("9 replicas on the default 8-node machine accepted")
	}
	if _, err := New(Config{Replicas: -1}, build); err == nil {
		t.Error("negative replica count accepted")
	}
	bad := memcost.NUMAModel{Nodes: 4, RemoteFactor: 0, IPILines: 1, InvLines: 1}
	if _, err := New(Config{NUMA: bad}, build); err == nil {
		t.Error("invalid NUMA model accepted")
	}
	s, err := New(Config{}, build)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.replicas) != 1 || s.Nodes() != memcost.DefaultNodes {
		t.Errorf("defaults: %d replicas, %d nodes", len(s.replicas), s.Nodes())
	}
}

func TestMapLookupUnmap(t *testing.T) {
	s := newClustered(t)
	vpn, ppn := addr.VPN(0x41), addr.PPN(0x77)
	if err := s.Map(vpn, ppn, pte.AttrR|pte.AttrW); err != nil {
		t.Fatal(err)
	}
	va := addr.VAOf(vpn) + 0x34
	e, ok := s.Lookup(va)
	if !ok || e.PPN != ppn {
		t.Fatalf("lookup = %v, %v; want ppn %#x", e, ok, uint64(ppn))
	}
	// Second lookup must be a cache hit.
	if _, ok := s.Lookup(va); !ok {
		t.Fatal("second lookup missed")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Fills != 1 {
		t.Errorf("stats = %+v; want 1 hit, 1 fill", st)
	}
	if err := s.Map(vpn, ppn, pte.AttrR); !errors.Is(err, pagetable.ErrAlreadyMapped) {
		t.Errorf("double map error = %v", err)
	}
	if err := s.Unmap(vpn); err != nil {
		t.Fatal(err)
	}
	// The cached translation must die with the mapping.
	if _, ok := s.Lookup(va); ok {
		t.Fatal("lookup succeeded after unmap — stale cache entry")
	}
	if err := s.Unmap(vpn); !errors.Is(err, pagetable.ErrNotMapped) {
		t.Errorf("double unmap error = %v", err)
	}
}

func TestMapRange(t *testing.T) {
	s := newClustered(t)
	const n = 100 // crosses several 16-page blocks
	base, frame := addr.VPN(0x1000), addr.PPN(0x2000)
	mapped, err := s.MapRange(base, frame, n, pte.AttrR)
	if err != nil || mapped != n {
		t.Fatalf("MapRange = %d, %v; want %d, nil", mapped, err, n)
	}
	for i := uint64(0); i < n; i++ {
		e, ok := s.Lookup(addr.VAOf(base + addr.VPN(i)))
		if !ok || e.PPN != frame+addr.PPN(i) {
			t.Fatalf("page %d: lookup = %v, %v", i, e, ok)
		}
	}
	// A second batch overlapping the first stops at the collision but
	// keeps the pages mapped before it.
	mapped, err = s.MapRange(base-2, frame-2, 5, pte.AttrR)
	if err == nil {
		t.Fatal("overlapping MapRange succeeded")
	}
	if mapped != 2 {
		t.Fatalf("overlapping MapRange mapped %d pages; want 2", mapped)
	}
	if _, ok := s.Lookup(addr.VAOf(base - 1)); !ok {
		t.Error("page mapped before the collision was lost")
	}
	if mapped, err := s.MapRange(base, frame, 0, pte.AttrR); mapped != 0 || err != nil {
		t.Errorf("empty MapRange = %d, %v", mapped, err)
	}
}

func TestProtectInvalidatesCache(t *testing.T) {
	s := newClustered(t)
	const n = 40
	base := addr.VPN(0x500)
	if _, err := s.MapRange(base, 0x900, n, pte.AttrR); err != nil {
		t.Fatal(err)
	}
	// Warm the cache over the whole range.
	for i := uint64(0); i < n; i++ {
		if _, ok := s.Lookup(addr.VAOf(base + addr.VPN(i))); !ok {
			t.Fatalf("page %d missing", i)
		}
	}
	r := addr.PageRange(addr.VAOf(base+10), 15)
	if err := s.Protect(r, pte.AttrW, 0); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		e, ok := s.Lookup(addr.VAOf(base + addr.VPN(i)))
		if !ok {
			t.Fatalf("page %d lost by protect", i)
		}
		wantW := i >= 10 && i < 25
		if e.Attr.Has(pte.AttrW) != wantW {
			t.Errorf("page %d: attr %v, want W=%v — stale cache after protect", i, e.Attr, wantW)
		}
	}
	if err := s.Protect(addr.Range{}, pte.AttrW, 0); err != nil {
		t.Errorf("empty protect: %v", err)
	}
}

func TestStatsCounters(t *testing.T) {
	s := newClustered(t)
	_ = s.Map(1, 1, pte.AttrR)
	_ = s.Map(1, 1, pte.AttrR) // conflict
	s.Lookup(addr.VAOf(1))     // fill
	s.Lookup(addr.VAOf(1))     // hit
	s.Lookup(addr.VAOf(2))     // fault
	_ = s.Unmap(1)
	_ = s.Unmap(1) // miss
	st := s.Stats()
	want := Stats{Hits: 1, Fills: 1, Faults: 1, Maps: 1, MapConflicts: 1, Unmaps: 1, UnmapMisses: 1}
	if st != want {
		t.Errorf("stats = %+v; want %+v", st, want)
	}
	if st.Lookups() != 3 {
		t.Errorf("Lookups() = %d; want 3", st.Lookups())
	}
	if r := st.HitRate(); r < 0.3 || r > 0.4 {
		t.Errorf("HitRate() = %v; want 1/3", r)
	}
	if (Stats{}).HitRate() != 0 {
		t.Error("zero-stats HitRate not 0")
	}
}

func TestShootdownCharging(t *testing.T) {
	r := newReplicated(t, 4)

	// A write from node 0 (hosts replica 0): 3 remote replicas.
	if err := r.Node(0).Map(0x100, 0x1, pte.AttrR); err != nil {
		t.Fatal(err)
	}
	sd := r.Shootdowns()
	want := memcost.ShootdownTally{Broadcasts: 1, IPIs: 3, RemotePages: 3,
		Lines: uint64(r.cfg.NUMA.BroadcastLines(3, 1))}
	if sd != want {
		t.Errorf("node-0 map tally %+v, want %+v", sd, want)
	}

	// A write from node 6 (hosts no replica): all 4 replicas are remote.
	if err := r.Node(6).Map(0x101, 0x2, pte.AttrR); err != nil {
		t.Fatal(err)
	}
	sd = r.Shootdowns()
	if sd.Broadcasts != 2 || sd.IPIs != 3+4 || sd.RemotePages != 3+4 {
		t.Errorf("node-6 map tally %+v", sd)
	}

	// A failed write broadcasts nothing new.
	if err := r.Node(0).Map(0x100, 0x9, pte.AttrR); err == nil {
		t.Fatal("double map accepted")
	}
	if got := r.Shootdowns(); got != sd {
		t.Errorf("failed map charged: %+v -> %+v", sd, got)
	}

	// A block MapRange batches: one broadcast, one IPI round per remote,
	// 16 remote page updates each.
	before := r.Shootdowns()
	if n, err := r.Node(0).MapRange(0x200, 0x100, 16, pte.AttrR); n != 16 || err != nil {
		t.Fatalf("MapRange = %d, %v", n, err)
	}
	after := r.Shootdowns()
	if after.Broadcasts != before.Broadcasts+1 || after.IPIs != before.IPIs+3 ||
		after.RemotePages != before.RemotePages+3*16 {
		t.Errorf("block map tally %+v -> %+v", before, after)
	}

	// Replication factor 1, writer on the hosting node: nothing remote.
	r1 := newReplicated(t, 1)
	if err := r1.Node(0).Map(0x100, 0x1, pte.AttrR); err != nil {
		t.Fatal(err)
	}
	if sd := r1.Shootdowns(); sd != (memcost.ShootdownTally{}) {
		t.Errorf("local-only write charged: %+v", sd)
	}
	// Same factor, writer across the interconnect: the replica is remote.
	if err := r1.Node(5).Map(0x101, 0x2, pte.AttrR); err != nil {
		t.Fatal(err)
	}
	if sd := r1.Shootdowns(); sd.Broadcasts != 1 || sd.IPIs != 1 {
		t.Errorf("remote write at factor 1: %+v", sd)
	}
}

func TestNodeLocality(t *testing.T) {
	r := newReplicated(t, 2)
	if err := r.Map(0x40, 0x80, pte.AttrR); err != nil {
		t.Fatal(err)
	}
	local, remote := r.Node(1), r.Node(5) // both home on replica 1
	if !local.local || remote.local {
		t.Fatalf("locality: node1=%v node5=%v", local.local, remote.local)
	}
	if local.rep != r.replicas[1] || remote.rep != r.replicas[1] {
		t.Fatal("nodes 1 and 5 not homed on replica 1")
	}
	// First lookup on each: a fill, walk lines charged per position.
	if _, ok := local.Lookup(addr.VAOf(0x40)); !ok {
		t.Fatal("local fill missed")
	}
	if _, ok := remote.Lookup(addr.VAOf(0x9999)); ok {
		t.Fatal("unmapped page resolved")
	}
	lc, rc := local.Cost(), remote.Cost()
	if lc.Fills != 1 || lc.LocalLines == 0 || lc.RemoteLines != 0 {
		t.Errorf("local cost %+v", lc)
	}
	if rc.Faults != 1 || rc.RemoteLines == 0 || rc.LocalLines != 0 {
		t.Errorf("remote cost %+v", rc)
	}
	if rc.RemoteLines%uint64(r.cfg.NUMA.RemoteFactor) != 0 {
		t.Errorf("remote lines %d not scaled by factor %d", rc.RemoteLines, r.cfg.NUMA.RemoteFactor)
	}
	// A hit is line-free.
	local.ResetCost()
	if _, ok := local.Lookup(addr.VAOf(0x40)); !ok {
		t.Fatal("hit missed")
	}
	if c := local.Cost(); c.Hits != 1 || c.Lines() != 0 {
		t.Errorf("hit cost %+v", c)
	}
}

// TestNodeLookupHitAllocs pins the 0-allocs/op contract on the hit case
// of both read paths, the interface and a bound Node — the line the
// benchmark scaling story rests on.
func TestNodeLookupHitAllocs(t *testing.T) {
	r := newReplicated(t, 4)
	if err := r.Map(0x40, 0x80, pte.AttrR); err != nil {
		t.Fatal(err)
	}
	va := addr.VAOf(0x40)
	for _, path := range []struct {
		name   string
		lookup func(addr.V) (pte.Entry, bool)
	}{{"Service.Lookup", r.Lookup}, {"Node.Lookup", r.Node(4).Lookup}} {
		if _, ok := path.lookup(va); !ok { // prime the cache
			t.Fatalf("%s: prime lookup missed", path.name)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			if _, ok := path.lookup(va); !ok {
				t.Fatalf("%s: hit path missed", path.name)
			}
		}); allocs != 0 {
			t.Errorf("%s hit path allocates %.1f allocs/op, want 0", path.name, allocs)
		}
	}
}

// TestNodeLookupFillAllocs pins 0 allocs/op on the miss path: a walk
// that fills the cache slot by value. Two pages share the one slot of a
// single-slot cache, so every lookup of the alternation misses and
// refills.
func TestNodeLookupFillAllocs(t *testing.T) {
	r := mustNew(t, Config{Stripes: 16, CacheSlots: 1, Replicas: 2},
		func() pagetable.PageTable { return core.MustNew(core.Config{Buckets: 256}) })
	pages := [2]addr.VPN{0x40, 0x1234}
	for i, vpn := range pages {
		if err := r.Map(vpn, addr.PPN(0x80+i), pte.AttrR); err != nil {
			t.Fatal(err)
		}
	}
	n := r.Node(1)
	if allocs := testing.AllocsPerRun(200, func() {
		for _, vpn := range pages {
			if _, ok := n.Lookup(addr.VAOf(vpn)); !ok {
				t.Fatalf("vpn %#x missed", uint64(vpn))
			}
		}
	}); allocs != 0 {
		t.Errorf("fill path allocates %.1f allocs/op, want 0", allocs)
	}
	if c := n.Cost(); c.Hits != 0 || c.Fills == 0 {
		t.Errorf("cost %+v: want every lookup a fill", c)
	}
}

func TestReplicatedDemote(t *testing.T) {
	r := newReplicated(t, 2)
	// Compact-PTE demotion rides through the follower test and the
	// oracle's superpage phase; here pin the no-op contracts: unmapped
	// and base-page blocks report no split on any replica, and no-ops
	// never count.
	if r.Demote(0x300) {
		t.Error("demote of an unmapped block succeeded")
	}
	if n, err := r.MapRange(0x300, 0x500, 16, pte.AttrR); n != 16 || err != nil {
		t.Fatalf("MapRange = %d, %v", n, err)
	}
	// Base pages: nothing compact to split; both replicas agree.
	if r.Demote(0x300) {
		t.Error("demote of base pages reported a split")
	}
	if r.Stats().Demotes != 0 {
		t.Errorf("no-op demotes counted: %+v", r.Stats())
	}
}

// TestReplicatedFollower mirrors an address space — superpages, partial
// blocks, churn eviction rounds — into a replicated service via the
// OnMap/OnUnmap shootdown hooks and requires translation equality with
// the space's own table at every quiesce point.
func TestReplicatedFollower(t *testing.T) {
	ct := core.MustNew(core.Config{})
	sp := mm.NewAddressSpace(ct, mm.MustNewAllocator(4096, 4),
		mm.Policy{UseSuperpages: true, UsePartial: true})
	r := newReplicated(t, 4)
	sp.OnMap, sp.OnUnmap = r.Follower()

	rg := addr.PageRange(0x100000, 40) // superpages + a partial block
	if err := sp.Reserve(addr.PageRange(0x100000, 64), pte.AttrR|pte.AttrW, "heap"); err != nil {
		t.Fatal(err)
	}
	check := func(ctx string) {
		t.Helper()
		rg.Pages(func(vpn addr.VPN) bool {
			we, _, wok := ct.Lookup(addr.VAOf(vpn))
			ge, gok := r.Lookup(addr.VAOf(vpn))
			if gok != wok || (wok && (ge.PPN != we.PPN || ge.Attr != we.Attr)) {
				t.Fatalf("%s: follower diverged at %#x: (%#x,%v) vs space (%#x,%v)",
					ctx, uint64(vpn), uint64(ge.PPN), gok, uint64(we.PPN), wok)
			}
			return true
		})
		auditReplicated(t, r, ctx)
	}

	for round := 0; round < 3; round++ {
		if err := sp.Populate(rg); err != nil {
			t.Fatal(err)
		}
		check("populated")
		// Demotion in the space is format-only and fires no hook;
		// translations must stay mirrored.
		sp.Demote(addr.VPNOf(0x100000))
		check("demoted")
		if err := sp.EvictRange(rg); err != nil {
			t.Fatal(err)
		}
		check("evicted")
	}
	if sd := r.Shootdowns(); sd.Broadcasts == 0 {
		t.Error("follower writes never charged the broadcast tally")
	}
}

func TestReplicatedReset(t *testing.T) {
	r := newReplicated(t, 4)
	if n, err := r.MapRange(0x100, 0x200, 32, pte.AttrR); n != 32 || err != nil {
		t.Fatalf("MapRange = %d, %v", n, err)
	}
	if _, ok := r.Lookup(addr.VAOf(0x100)); !ok {
		t.Fatal("mapped page missed")
	}
	r.Reset()
	if _, ok := r.Lookup(addr.VAOf(0x100)); ok {
		t.Fatal("mapping survived reset")
	}
	if st := r.Stats(); st != (Stats{Faults: 1}) {
		t.Errorf("counters after reset: %+v", st)
	}
	if sd := r.Shootdowns(); sd != (memcost.ShootdownTally{}) {
		t.Errorf("tally after reset: %+v", sd)
	}
	for i, rep := range r.replicas {
		if seq := rep.seq.Load(); seq != 0 {
			t.Errorf("replica %d seq %d after reset", i, seq)
		}
		if sz := rep.table.Size(); sz.Mappings != 0 {
			t.Errorf("replica %d kept %d mappings", i, sz.Mappings)
		}
	}
}

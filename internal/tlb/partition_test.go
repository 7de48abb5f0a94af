package tlb

// Differential tests for the partitioned-TLB wrapper against the serial
// TLB as reference model. Three properties are pinned:
//
//  1. k=1 is the serial TLB exactly, on any stream;
//  2. for region-disjoint streams whose per-shard working sets fit
//     their slices, aggregate misses equal the serial TLB's (the
//     replacement policy never chooses between regions, so partitioning
//     changes nothing);
//  3. under capacity contention the equivalence breaks — a skewed
//     working set that fits the shared TLB thrashes its slice. This is
//     the documented reason the figure path keeps the serial TLB as its
//     reference model (DESIGN.md §10).

import (
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/pte"
	"clusterpt/internal/trace"
)

func baseEntry(vpn addr.VPN) pte.Entry {
	return pte.Entry{VPN: vpn, PPN: addr.PPN(vpn), Size: addr.Size4K, Kind: pte.KindBase}
}

// driveBoth feeds the same address stream to a serial TLB and a
// partitioned TLB, inserting on miss, and returns their miss counts.
func driveBoth(t *testing.T, serial *TLB, part *Partitioned, stream []addr.V) (uint64, uint64) {
	t.Helper()
	for _, va := range stream {
		vpn := addr.VPNOf(va)
		if !serial.Access(va).Hit {
			serial.Insert(baseEntry(vpn))
		}
		if !part.Access(va).Hit {
			part.Insert(baseEntry(vpn))
		}
	}
	return serial.Stats().Misses, part.Stats().Misses
}

// TestPartitionedK1IsSerial: one slice, nil route — identical outcomes
// on an arbitrary mixed stream, access by access.
func TestPartitionedK1IsSerial(t *testing.T) {
	serial := MustNew(Config{Entries: 16})
	part, err := NewPartitioned(Config{Entries: 16}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := trace.NewRNG(17)
	for i := 0; i < 20_000; i++ {
		vpn := addr.VPN(rng.Uint64n(64)) // working set 4x capacity: constant replacement
		va := addr.VAOf(vpn)
		sr, pr := serial.Access(va), part.Access(va)
		if sr != pr {
			t.Fatalf("access %d: serial %+v != partitioned %+v", i, sr, pr)
		}
		if !sr.Hit {
			serial.Insert(baseEntry(vpn))
			part.Insert(baseEntry(vpn))
		}
	}
	if s, p := serial.Stats(), part.Stats(); s != p {
		t.Fatalf("stats diverged: %+v != %+v", s, p)
	}
}

// regionStream interleaves cyclic sweeps over two disjoint page sets
// with a deterministic 2:1 mix.
func regionStream(aPages, bPages, n int) []addr.V {
	const aBase, bBase = 0x1000, 0x800000
	out := make([]addr.V, 0, n)
	ai, bi := 0, 0
	for i := 0; i < n; i++ {
		if i%3 == 2 {
			out = append(out, addr.VAOf(addr.VPN(bBase+bi%bPages)))
			bi++
		} else {
			out = append(out, addr.VAOf(addr.VPN(aBase+ai%aPages)))
			ai++
		}
	}
	return out
}

func routeAB(va addr.V) int {
	if addr.VPNOf(va) >= 0x800000 {
		return 1
	}
	return 0
}

// TestPartitionedDisjointNoContention: both per-region working sets fit
// their slices, so after compulsory misses both organizations are all
// hits and the aggregate miss counts are equal.
func TestPartitionedDisjointNoContention(t *testing.T) {
	serial := MustNew(Config{Entries: 64})
	part, err := NewPartitioned(Config{Entries: 64}, 2, routeAB)
	if err != nil {
		t.Fatal(err)
	}
	// 24 + 20 pages across a 32/32 split: each slice holds its region.
	sm, pm := driveBoth(t, serial, part, regionStream(24, 20, 30_000))
	if sm != pm {
		t.Fatalf("region-disjoint fitting streams diverged: serial %d misses, partitioned %d", sm, pm)
	}
	if sm != 44 {
		t.Fatalf("expected exactly the 44 compulsory misses, got %d", sm)
	}
}

// TestPartitionedContentionCounterexample: a skewed working set (50+10
// pages) fits the shared 64-entry TLB but thrashes the heavy region's
// 32-entry slice — partitioning inflates misses. This asymmetry is why
// per-shard TLB slices cannot stand in for the serial TLB in the
// figures' miss accounting.
func TestPartitionedContentionCounterexample(t *testing.T) {
	serial := MustNew(Config{Entries: 64})
	part, err := NewPartitioned(Config{Entries: 64}, 2, routeAB)
	if err != nil {
		t.Fatal(err)
	}
	sm, pm := driveBoth(t, serial, part, regionStream(50, 10, 30_000))
	if sm != 60 {
		t.Fatalf("expected the shared TLB to take only the 60 compulsory misses, got %d", sm)
	}
	if pm <= sm*10 {
		t.Fatalf("expected the 50-page region to thrash its 32-entry slice: serial %d, partitioned %d", sm, pm)
	}
}

// TestPartitionedCapacitySplit: entries divide with remainder to the
// lowest slices, and invalid configurations are rejected.
func TestPartitionedCapacitySplit(t *testing.T) {
	p, err := NewPartitioned(Config{Entries: 10}, 3, func(addr.V) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	want := []int{4, 3, 3}
	total := 0
	for i, w := range want {
		if g := p.Part(i).Entries(); g != w {
			t.Errorf("slice %d has %d entries, want %d", i, g, w)
		}
		total += p.Part(i).Entries()
	}
	if total != 10 {
		t.Errorf("aggregate capacity %d, want 10", total)
	}
	if _, err := NewPartitioned(Config{Entries: 4}, 8, func(addr.V) int { return 0 }); err == nil {
		t.Error("8 slices over 4 entries accepted")
	}
	if _, err := NewPartitioned(Config{Entries: 8}, 0, nil); err == nil {
		t.Error("zero slices accepted")
	}
	if _, err := NewPartitioned(Config{Entries: 8}, 2, nil); err == nil {
		t.Error("multi-slice partition with nil route accepted")
	}
}

// TestPartitionedShardedReplayEquivalence: replaying each shard's
// sub-stream — the serial stream filtered by route(va) == i — against
// its own slice directly, with no routing (shard i drives Part(i)),
// produces the same aggregate stats as routing the serial stream
// through the partitioned TLB, because region-disjoint slices never
// interact.
func TestPartitionedShardedReplayEquivalence(t *testing.T) {
	p, ok := trace.ProfileByName("compress")
	if !ok {
		t.Fatal("no compress profile")
	}
	snap := p.Snapshot()[0]
	const k, refs = 2, 20_000
	plan := trace.ShardPlan(snap, k)
	pageShard := map[addr.VPN]int{}
	ri := 0
	for _, r := range snap.Regions {
		if len(r.Pages) == 0 || r.Spec.Weight <= 0 {
			continue
		}
		for _, pg := range r.Pages {
			pageShard[pg] = plan[ri]
		}
		ri++
	}
	route := func(va addr.V) int { return pageShard[addr.VPNOf(va)] }

	routed, err := NewPartitioned(Config{Entries: 64}, k, route)
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.NewGenerator(snap, 9)
	for i := 0; i < refs; i++ {
		va := gen.Next()
		if !routed.Access(va).Hit {
			routed.Insert(baseEntry(addr.VPNOf(va)))
		}
	}

	direct, err := NewPartitioned(Config{Entries: 64}, k, route)
	if err != nil {
		t.Fatal(err)
	}
	for si := 0; si < k; si++ {
		slice := direct.Part(si)
		gen := trace.NewGenerator(snap, 9)
		for i := 0; i < refs; i++ {
			va := gen.Next()
			if route(va) != si {
				continue
			}
			if !slice.Access(va).Hit {
				slice.Insert(baseEntry(addr.VPNOf(va)))
			}
		}
	}
	if r, d := routed.Stats(), direct.Stats(); r != d {
		t.Fatalf("routed vs per-shard replay diverged: %+v != %+v", r, d)
	}
}

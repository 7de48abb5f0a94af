package tlb

// Unit tests of the probe table under the TLB index, checked after
// every operation against a plain Go map: the shapes linear probing and
// backward-shift deletion get wrong — keys that share one home slot, a
// probe run that wraps past the array end, every deletion order within
// a run, and key 0 — plus a randomized stream over a tiny table.

import (
	"fmt"
	"math/rand"
	"testing"
)

// probeSlots is the size of the tables the tests use. They hold up to
// probeMaxKeys keys, twice what a TLB ever puts in one: the table itself
// needs only one empty slot to end every probe run.
const (
	probeSlots   = 16
	probeMaxKeys = probeSlots / 2
)

func newTestTable() probeTable { return newProbeTable(probeSlots / slotsPerEntry) }

// checkProbe verifies p against the reference map: the same key count,
// the same ref for every reference key, no stray keys, every resident
// key reachable from its home without crossing an empty slot, and a
// miss for keys the reference does not hold.
func checkProbe(p *probeTable, ref map[uint64]slotRef, absent ...uint64) error {
	if int(p.keys) != len(ref) {
		return fmt.Errorf("keys %d, want %d", p.keys, len(ref))
	}
	mask := len(p.slots) - 1
	occupied := 0
	for i, s := range p.slots {
		if s.ref.n == 0 {
			continue
		}
		occupied++
		if want, ok := ref[s.key]; !ok || want != s.ref {
			return fmt.Errorf("slot %d holds key %#x ref %+v; reference has %+v (present %v)", i, s.key, s.ref, want, ok)
		}
		for j := p.home(s.key); j != i; j = (j + 1) & mask {
			if p.slots[j].ref.n == 0 {
				return fmt.Errorf("key %#x at %d unreachable: empty slot %d after home %d", s.key, i, j, p.home(s.key))
			}
		}
	}
	if occupied != len(ref) {
		return fmt.Errorf("%d occupied slots, want %d", occupied, len(ref))
	}
	for k, want := range ref {
		if got := p.get(k); got != want {
			return fmt.Errorf("get(%#x) = %+v, want %+v", k, got, want)
		}
	}
	for _, k := range absent {
		if _, ok := ref[k]; ok {
			continue
		}
		if got := p.get(k); got.n != 0 {
			return fmt.Errorf("get(%#x) = %+v for an absent key", k, got)
		}
		if i := p.find(k); i >= 0 {
			return fmt.Errorf("find(%#x) = %d for an absent key", k, i)
		}
	}
	return nil
}

// refAdd mirrors probeTable.add on the reference map.
func refAdd(ref map[uint64]slotRef, key uint64, slot int32) {
	r, ok := ref[key]
	if !ok {
		ref[key] = slotRef{min: slot, n: 1}
		return
	}
	ref[key] = slotRef{min: min(r.min, slot), n: r.n + 1}
}

// keysHomedAt returns the first n keys whose home in p is h, key 0
// first when its home is h.
func keysHomedAt(p *probeTable, h, n int) []uint64 {
	var keys []uint64
	for k := uint64(0); len(keys) < n; k++ {
		if p.home(k) == h {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestProbeTableSizes pins the table size: the smallest power of two
// of at least 4× the entry count.
func TestProbeTableSizes(t *testing.T) {
	for _, tc := range []struct{ entries, slots int }{
		{1, 4}, {2, 8}, {3, 16}, {4, 16}, {5, 32}, {64, 256}, {65, 512}, {MaxEntries, 4 * MaxEntries},
	} {
		if got := len(newProbeTable(tc.entries).slots); got != tc.slots {
			t.Errorf("entries %d: %d slots, want %d", tc.entries, got, tc.slots)
		}
	}
}

// TestProbeTableCollidingRuns forces keys onto one home slot — mid-array
// and at the last slot, where the run wraps to the front — and deletes
// them forward, in reverse and middle first, checking against the
// reference after every step. The wrapping run also competes with key
// 0, whose home is slot 0.
func TestProbeTableCollidingRuns(t *testing.T) {
	orders := map[string][]int{
		"forward":      {0, 1, 2, 3, 4},
		"reverse":      {4, 3, 2, 1, 0},
		"middle-first": {2, 1, 3, 0, 4},
	}
	for _, home := range []int{5, probeSlots - 1} {
		for name, order := range orders {
			t.Run(fmt.Sprintf("home%d/%s", home, name), func(t *testing.T) {
				p := newTestTable()
				keys := keysHomedAt(&p, home, 5)
				if home == len(p.slots)-1 {
					// Key 0 is homed at slot 0, inside the wrapped run.
					keys = append(keys[:4], 0)
				}
				ref := map[uint64]slotRef{}
				probe := append([]uint64{0, 1, 2, 3}, keysHomedAt(&p, home, 7)...)
				for i, k := range keys {
					p.add(k, int32(i))
					refAdd(ref, k, int32(i))
					if err := checkProbe(&p, ref, probe...); err != nil {
						t.Fatalf("after add %#x: %v", k, err)
					}
				}
				if home == len(p.slots)-1 {
					// The run must wrap: positions 15, 0, 1, 2 hold the
					// four colliding keys and key 0 follows at 3.
					for i, want := range []int{15, 0, 1, 2, 3} {
						if got := p.find(keys[i]); got != want {
							t.Fatalf("key %#x at %d, want %d", keys[i], got, want)
						}
					}
				}
				for _, o := range order {
					k := keys[o]
					i := p.find(k)
					if i < 0 {
						t.Fatalf("key %#x missing before delete", k)
					}
					p.deleteAt(i)
					delete(ref, k)
					if err := checkProbe(&p, ref, probe...); err != nil {
						t.Fatalf("after delete %#x: %v", k, err)
					}
				}
			})
		}
	}
}

// TestProbeTableDuplicates adds one key from several slots: the ref
// keeps the lowest slot and the count, and the key occupies one array
// position.
func TestProbeTableDuplicates(t *testing.T) {
	p := newTestTable()
	ref := map[uint64]slotRef{}
	for _, slot := range []int32{5, 3, 7, 0} {
		p.add(0, slot)
		refAdd(ref, 0, slot)
		if err := checkProbe(&p, ref, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.get(0); got != (slotRef{min: 0, n: 4}) {
		t.Fatalf("get(0) = %+v, want {min:0 n:4}", got)
	}
}

// TestProbeTableRandomOps replays random add/delete/clear streams over
// a key universe with forced collisions, key 0 included, never holding
// more than probeMaxKeys keys.
func TestProbeTableRandomOps(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newTestTable()
		universe := append([]uint64{0, 1, 1 << 4, 1 << 8},
			keysHomedAt(&p, probeSlots-1, 4)...)
		universe = append(universe, keysHomedAt(&p, 7, 4)...)
		ref := map[uint64]slotRef{}
		for op := 0; op < 2000; op++ {
			k := universe[rng.Intn(len(universe))]
			_, held := ref[k]
			switch r := rng.Intn(20); {
			case r == 0:
				p.clear()
				clear(ref)
			case r < 10 && (held || len(ref) < probeMaxKeys):
				slot := int32(rng.Intn(probeMaxKeys))
				p.add(k, slot)
				refAdd(ref, k, slot)
			case held:
				p.deleteAt(p.find(k))
				delete(ref, k)
			}
			if err := checkProbe(&p, ref, universe...); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
	}
}

// TestWrappedRunCorpusKeys pins the premise of the
// invalidate-wrapped-run FuzzTLBIndex corpus file: in a 4-entry TLB,
// VPNs 8, 21 and 42 all have the table's last slot as home, so their
// probe run wraps past the array end.
func TestWrappedRunCorpusKeys(t *testing.T) {
	p := newProbeTable(4)
	for _, k := range []uint64{8, 21, 42} {
		if h := p.home(k); h != len(p.slots)-1 {
			t.Errorf("home(%d) = %d, want the last slot %d", k, h, len(p.slots)-1)
		}
	}
}

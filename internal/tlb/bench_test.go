package tlb

// Benchmarks for the indexed TLB: every kind, hit and miss paths,
// 64–1024 entries. The rows keep their /indexed suffix so snapshots stay
// comparable with those taken when a linear-scan mode sat beside it.
// `make bench-replay` snapshots these into BENCH_replay.json.

import (
	"fmt"
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/pte"
)

// benchLoad fills the TLB with ws resident base pages, one per block so
// every kind consumes one slot per page.
func benchLoad(t *TLB, ws int) []addr.V {
	vas := make([]addr.V, ws)
	for i := 0; i < ws; i++ {
		vpn := addr.VPN(i << t.cfg.LogSBF)
		t.Insert(pte.Entry{VPN: vpn, PPN: addr.PPN(vpn) + 1000})
		vas[i] = addr.VAOf(vpn)
	}
	return vas
}

func benchmarkAccess(b *testing.B, kind Kind, entries int) {
	b.Run("hit", func(b *testing.B) {
		t := MustNew(Config{Kind: kind, Entries: entries})
		vas := benchLoad(t, entries)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r := t.Access(vas[i%len(vas)]); !r.Hit {
				b.Fatal("expected hit")
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		t := MustNew(Config{Kind: kind, Entries: entries})
		benchLoad(t, entries)
		// Thrash: a universe 4x the TLB so every access misses and every
		// service evicts, exercising lookup, victim choice, and index
		// maintenance together.
		universe := entries * 4
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			vpn := addr.VPN((entries + i%universe) << 4)
			if r := t.Access(addr.VAOf(vpn)); r.Hit {
				b.Fatal("expected miss")
			}
			t.Insert(pte.Entry{VPN: vpn, PPN: addr.PPN(vpn) + 1000})
		}
	})
}

func BenchmarkAccess(b *testing.B) {
	for _, kind := range diffKinds {
		for _, entries := range []int{64, 256, 1024} {
			b.Run(fmt.Sprintf("%v/e%d/indexed", kind, entries), func(b *testing.B) {
				benchmarkAccess(b, kind, entries)
			})
		}
	}
}

// TestCompleteSubblockRefillNoAllocs pins a full complete-subblock
// TLB's refills at zero allocations: every block miss replaces a victim,
// whether by prefetch (InsertBlockWords, or the InsertBlock adapter) or
// by one page (InsertWord, or the Insert adapter), and the new entry
// takes over the victim's frame array instead of allocating one.
func TestCompleteSubblockRefillNoAllocs(t *testing.T) {
	const entries = 64
	tl := MustNew(Config{Kind: CompleteSubblock, Entries: entries})
	blocks := make([][]pte.Entry, 4*entries)
	words := make([][16]pte.Word, len(blocks))
	for b := range blocks {
		for boff := addr.VPN(0); boff < 16; boff += 2 {
			vpn := addr.VPN(b)*16 + boff
			blocks[b] = append(blocks[b], base(vpn, addr.PPN(vpn)+1))
			words[b][boff] = pte.MakeBase(addr.PPN(vpn)+1, 0)
		}
	}
	for b := 0; b < entries; b++ {
		tl.InsertBlockWords(addr.VPBN(b), words[b][:])
	}
	b := entries
	next := func() int { b = (b + 1) % len(blocks); return b }
	for _, c := range []struct {
		name string
		fill func()
	}{
		{"InsertBlockWords", func() { n := next(); tl.InsertBlockWords(addr.VPBN(n), words[n][:]) }},
		{"InsertBlock", func() { n := next(); tl.InsertBlock(addr.VPBN(n), blocks[n]) }},
		{"InsertWord", func() { n := next(); tl.InsertWord(blocks[n][1].VPN, words[n][2]) }},
		{"Insert", func() { tl.Insert(blocks[next()][1]) }},
	} {
		if allocs := testing.AllocsPerRun(100, c.fill); allocs != 0 {
			t.Errorf("%s into a full TLB allocated %.1f times per refill, want 0", c.name, allocs)
		}
	}
}

// BenchmarkRefill measures the fill core alone on a full TLB, where
// every fill evicts a victim: InsertWord per kind with the word each
// kind stores (a base page, a 64KB superpage, a partial-subblock block,
// a complete-subblock page), and InsertBlockWords, the complete-subblock
// prefetch of a half-mapped 16-page block.
func BenchmarkRefill(b *testing.B) {
	const entries, universe = 64, 256
	for _, kind := range diffKinds {
		b.Run(fmt.Sprintf("InsertWord/%v", kind), func(b *testing.B) {
			t := MustNew(Config{Kind: kind, Entries: entries})
			word := func(vpn addr.VPN) pte.Word {
				switch kind {
				case Superpage:
					return pte.MakeSuperpage(addr.PPN(vpn)+1<<20, 0, addr.Size64K)
				case PartialSubblock:
					return pte.MakePartial(addr.PPN(vpn)+1<<20, 0, 0x00ff, 4)
				}
				return pte.MakeBase(addr.PPN(vpn)+1<<20, 0)
			}
			words := make([]pte.Word, universe)
			for i := range words {
				words[i] = word(addr.VPN(i << 4))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % universe
				t.InsertWord(addr.VPN(j<<4), words[j])
			}
		})
	}
	b.Run("InsertBlockWords/complete-subblock", func(b *testing.B) {
		t := MustNew(Config{Kind: CompleteSubblock, Entries: entries})
		blocks := make([][16]pte.Word, universe)
		for i := range blocks {
			for boff := 0; boff < 16; boff += 2 {
				blocks[i][boff] = pte.MakeBase(addr.PPN(i<<4+boff)+1<<20, 0)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % universe
			t.InsertBlockWords(addr.VPBN(j), blocks[j][:])
		}
	})
}

// TestMissPathNoAllocs pins the miss path of every kind at zero
// allocations: a full TLB thrashed by a working set four times its
// size, where every Access misses and every Insert evicts a victim and
// updates the index. Each kind stores its own format: superpage TLBs a
// 64KB span, partial-subblock TLBs a partial vector, the others base
// pages.
func TestMissPathNoAllocs(t *testing.T) {
	const entries = 64
	for _, kind := range diffKinds {
		t.Run(kind.String(), func(t *testing.T) {
			tl := MustNew(Config{Kind: kind, Entries: entries})
			entryFor := func(i int) pte.Entry {
				vpn := addr.VPN(i << 4)
				e := pte.Entry{VPN: vpn, PPN: addr.PPN(vpn) + 1000, Kind: pte.KindBase, Size: addr.Size4K}
				switch kind {
				case Superpage:
					e.Kind, e.Size = pte.KindSuperpage, addr.Size64K
				case PartialSubblock:
					e.Kind, e.ValidMask = pte.KindPartial, 0x00ff
				}
				return e
			}
			for i := 0; i < entries; i++ {
				tl.Insert(entryFor(i))
			}
			i := entries
			allocs := testing.AllocsPerRun(200, func() {
				e := entryFor(i % (4 * entries))
				i++
				if r := tl.Access(addr.VAOf(e.VPN)); r.Hit {
					t.Fatal("expected miss")
				}
				tl.Insert(e)
			})
			if allocs != 0 {
				t.Fatalf("miss plus refill allocated %.1f times, want 0", allocs)
			}
		})
	}
}

// TestBatchedAccessNoAllocs pins the acceptance criterion that the
// batched TLB access loop allocates nothing: a resident working set
// replayed through Access must cost 0 allocs/op in every kind.
func TestBatchedAccessNoAllocs(t *testing.T) {
	for _, kind := range diffKinds {
		t.Run(kind.String(), func(t *testing.T) {
			tl := MustNew(Config{Kind: kind, Entries: 64})
			vas := benchLoad(tl, 64)
			i := 0
			allocs := testing.AllocsPerRun(100, func() {
				for j := 0; j < 256; j++ {
					if r := tl.Access(vas[i%len(vas)]); !r.Hit {
						t.Fatal("expected hit")
					}
					i++
				}
			})
			if allocs != 0 {
				t.Fatalf("batched access loop allocated %.1f times per run, want 0", allocs)
			}
		})
	}
}

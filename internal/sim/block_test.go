package sim

import (
	"slices"
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/memcost"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
	"clusterpt/internal/trace"
)

// blockReader is one built organization's block gather.
type blockReader struct {
	name string
	pagetable.BlockReader
}

// blockReaders builds the gcc snapshot's first process into every
// Figure 11a organization under mode and returns their block gathers,
// with the snapshot's blocks: each block holding a mapped page, then
// the block just past each region's end.
func blockReaders(t *testing.T, mode PTEMode) ([]blockReader, []addr.VPBN) {
	t.Helper()
	p, ok := trace.ProfileByName("gcc")
	if !ok {
		t.Fatal("no gcc profile")
	}
	snap := p.Snapshot()[0]
	var vpbns []addr.VPBN
	for _, r := range snap.Regions {
		for _, vpn := range r.Pages {
			vpbn, _ := addr.BlockSplit(vpn, 4)
			if len(vpbns) == 0 || vpbns[len(vpbns)-1] != vpbn {
				vpbns = append(vpbns, vpbn)
			}
		}
	}
	for _, r := range snap.Regions {
		end := addr.VPNOf(r.Range().Start) + addr.VPN(r.Spec.Pages)
		vpbn, _ := addr.BlockSplit(end+16, 4)
		vpbns = append(vpbns, vpbn)
	}
	var brs []blockReader
	for _, v := range Fig11a.Variants() {
		b, err := BuildProcess(v, mode, snap, memcost.NewModel(0))
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		brs = append(brs, blockReader{v.Name, b.Table.(pagetable.BlockReader)})
	}
	return brs, vpbns
}

// TestAppendBlockContract pins pagetable.BlockReader's append-style
// contract on every organization, over every block of a built gcc
// snapshot under base-only, superpage and partial-subblock PTEs:
// AppendBlock leaves dst's elements untouched whether it appends in
// place or grows, appends exactly what LookupBlock returns at the same
// cost, and reports ok only when it appended something. Each mode must
// gather its compact PTE kind from at least one organization, so the
// superpage and partial-subblock paths are really exercised.
func TestAppendBlockContract(t *testing.T) {
	prefix := []pte.Entry{{VPN: 7, PPN: 70}, {VPN: 9, PPN: 90, Kind: pte.KindPartial, ValidMask: 3}}
	modes := []struct {
		name string
		mode PTEMode
		kind pte.Kind // the compact PTE kind the mode must gather
	}{
		{"base-only", BaseOnly, pte.KindBase},
		{"superpage", WithSuperpages, pte.KindSuperpage},
		{"partial-subblock", WithPartial, pte.KindPartial},
	}
	for _, m := range modes {
		brs, vpbns := blockReaders(t, m.mode)
		kinds := map[pte.Kind]bool{}
		for _, br := range brs {
			t.Run(m.name+"/"+br.name, func(t *testing.T) {
				mapped := 0
				for _, vpbn := range vpbns {
					want, wantCost, wantOK := br.LookupBlock(vpbn, 4)
					if wantOK != (len(want) > 0) {
						t.Fatalf("block %#x: LookupBlock ok=%v with %d entries", vpbn, wantOK, len(want))
					}
					if wantOK {
						mapped++
					}
					for _, e := range want {
						kinds[e.Kind] = true
					}
					// Exact capacity makes any append grow; spare
					// capacity makes it append in place.
					for _, dst := range [][]pte.Entry{
						slices.Clip(slices.Clone(prefix)),
						append(make([]pte.Entry, 0, len(prefix)+16), prefix...),
					} {
						got, cost, ok := br.AppendBlock(dst, vpbn, 4)
						if !slices.Equal(dst, prefix) || !slices.Equal(got[:len(prefix)], prefix) {
							t.Fatalf("block %#x: prefix modified", vpbn)
						}
						if !slices.Equal(got[len(prefix):], want) {
							t.Fatalf("block %#x: appended %v, LookupBlock returned %v", vpbn, got[len(prefix):], want)
						}
						if cost != wantCost {
							t.Fatalf("block %#x: cost %+v, LookupBlock cost %+v", vpbn, cost, wantCost)
						}
						if ok != wantOK || ok != (len(got) > len(prefix)) {
							t.Fatalf("block %#x: ok=%v appending %d entries", vpbn, ok, len(got)-len(prefix))
						}
					}
				}
				if mapped == 0 || mapped == len(vpbns) {
					t.Fatalf("%d of %d blocks mapped: want both mapped and unmapped blocks", mapped, len(vpbns))
				}
			})
		}
		if !kinds[m.kind] {
			t.Errorf("%s: no organization gathered a %v entry", m.name, m.kind)
		}
	}
}

// TestAppendBlockNoAllocs pins the complete-subblock prefetch gather at
// zero allocations per block once the caller's buffer is warm, for all
// four organizations.
func TestAppendBlockNoAllocs(t *testing.T) {
	brs, vpbns := blockReaders(t, BaseOnly)
	for _, br := range brs {
		t.Run(br.name, func(t *testing.T) {
			var buf []pte.Entry
			buf, _, _ = br.AppendBlock(buf[:0], vpbns[0], 4)
			i := 0
			allocs := testing.AllocsPerRun(100, func() {
				buf, _, _ = br.AppendBlock(buf[:0], vpbns[i%len(vpbns)], 4)
				i++
			})
			if allocs != 0 {
				t.Fatalf("AppendBlock into a warm buffer allocated %.1f times per call, want 0", allocs)
			}
		})
	}
}

package tlb

// Real-stream coverage for the differential suite: the synthetic
// workload traces the Figure 11 experiments replay, served the way the
// simulator serves them, through a production TLB and its reference
// model at the paper's 64 entries and larger.

import (
	"fmt"
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/pte"
	"clusterpt/internal/trace"
)

// streamRefs is the reference budget per workload, split across its
// processes by RefShare.
const streamRefs = 20_000

// streamPPN places every page at a fixed, block-aligned offset, so each
// block is properly placed for partial-subblock entries and each aligned
// fully-mapped region can be a superpage.
func streamPPN(vpn addr.VPN) addr.PPN { return addr.PPN(vpn) + 1<<20 }

// streamFill services one miss on vpn in the TLB kind's format: a base
// page; the largest fully-mapped aligned superpage; a partial-subblock
// word with the block's mapped-page mask, or a superpage for a full
// block; or, for complete-subblock block misses on odd blocks, a block
// prefetch (even blocks fill page by page so subblock misses occur).
// Every fill is a word; misses on odd pages reach the production TLB
// through the entry adapters instead.
func streamFill(p *diffPair, vpn addr.VPN, res Result, mapped map[addr.VPN]bool) {
	fully := func(size addr.Size) bool {
		base := vpn &^ addr.VPN(size.Pages()-1)
		for i := addr.VPN(0); i < addr.VPN(size.Pages()); i++ {
			if !mapped[base+i] {
				return false
			}
		}
		return true
	}
	viaEntry := vpn%2 == 1
	w := pte.MakeBase(streamPPN(vpn), 0)
	vpbn, _ := addr.BlockSplit(vpn, 4)
	first := addr.BlockJoin(vpbn, 0, 4)
	switch p.fast.Kind() {
	case Superpage:
		for _, size := range []addr.Size{addr.Size1M, addr.Size256K, addr.Size64K} {
			if fully(size) {
				w = pte.MakeSuperpage(streamPPN(vpn&^addr.VPN(size.Pages()-1)), 0, size)
				break
			}
		}
	case PartialSubblock:
		if fully(addr.Size64K) {
			w = pte.MakeSuperpage(streamPPN(first), 0, addr.Size64K)
			break
		}
		var mask uint16
		for i := addr.VPN(0); i < 16; i++ {
			if mapped[first+i] {
				mask |= 1 << i
			}
		}
		w = pte.MakePartial(streamPPN(first), 0, mask, 4)
	case CompleteSubblock:
		if !res.SubblockMiss && vpbn%2 == 1 {
			var words [16]pte.Word
			for i := addr.VPN(0); i < 16; i++ {
				if mapped[first+i] {
					words[i] = pte.MakeBase(streamPPN(first+i), 0)
				}
			}
			p.insertBlock(vpbn, words[:], viaEntry)
			return
		}
	}
	p.insert(vpn, w, viaEntry)
}

// TestTLBDifferentialTraceStreams replays traced workloads through
// every kind at 64, 256 and 1024 entries. Results and Stats are
// compared on every reference, the full slot arrays — LRU ticks
// included, so a wrong hit touch surfaces too — after every fill and at
// the end of each process.
func TestTLBDifferentialTraceStreams(t *testing.T) {
	for _, name := range []string{"mp3d", "compress", "gcc"} {
		prof, ok := trace.ProfileByName(name)
		if !ok {
			t.Fatalf("no %s profile", name)
		}
		snaps := prof.Snapshot()
		for _, kind := range diffKinds {
			for _, entries := range []int{64, 256, 1024} {
				t.Run(fmt.Sprintf("%s/%v/e%d", name, kind, entries), func(t *testing.T) {
					for pi, snap := range snaps {
						mapped := make(map[addr.VPN]bool)
						for _, vpn := range snap.AllPages() {
							mapped[vpn] = true
						}
						p, err := newDiffPair(kind, entries, 4)
						if err != nil {
							t.Fatal(err)
						}
						gen := trace.NewGenerator(snap, uint64(pi)+1)
						n := int(streamRefs * prof.Procs[pi].RefShare)
						for i := 0; i < n; i++ {
							va := gen.Next()
							res, err := p.access(va)
							switch {
							case err != nil:
							case !res.Hit:
								streamFill(p, addr.VPNOf(va), res, mapped)
								err = p.stateEqual()
							case p.fast.stats != p.ref.stats:
								err = fmt.Errorf("stats diverged: indexed %+v vs ref %+v", p.fast.stats, p.ref.stats)
							}
							if err == nil && i == n-1 {
								err = p.stateEqual()
							}
							if err != nil {
								t.Fatalf("%s ref %d: %v", snap.Name, i, err)
							}
						}
						if st := p.fast.Stats(); st.Misses == 0 || st.Hits == 0 {
							t.Fatalf("%s: degenerate stream: %+v", snap.Name, st)
						}
					}
				})
			}
		}
	}
}

package service

import (
	"errors"
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/core"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
)

// FuzzReplicaOps decodes arbitrary bytes into op streams over a
// replicated table — maps, unmaps, touches, demotes and resets, every
// op routed through a fuzzer-chosen node so the broadcast origin and
// the read-path replica vary per step — and shadows them with the
// plain-map reference model. The replication factor itself comes from
// the input, so one corpus entry can only be minimal for the factor it
// selects. After every op the routed node and the interface path are
// compared on the op's page; periodically and at the end the full page
// universe is swept through rotating nodes and the replicas audited.

// fuzzBase anchors the 256-page fuzz universe: 16 aligned 16-page
// blocks, so vpn bytes reach block bases, interiors and boundaries.
const fuzzBase = addr.VPN(0x400)

func FuzzReplicaOps(f *testing.F) {
	// Structured seeds: a map/touch/unmap round at factor 4, a
	// whole-block fill then demote at factor 8, and a reset sandwich at
	// factor 2. The checked-in corpus under testdata/fuzz extends these.
	f.Add([]byte{
		2,          // factor 1<<2 = 4
		0, 0x10, 0, // map block base
		2, 0x10, 5, // touch it from another node
		1, 0x10, 7, // unmap it from a third
	})
	f.Add([]byte{
		3,          // factor 8
		5, 0x20, 1, // map-range from 0x20
		3, 0x20, 6, // demote the block
		2, 0x2f, 2, // touch the last page
	})
	f.Add([]byte{
		1, // factor 2
		0, 0x40, 0,
		4, 0x00, 0, // reset
		0, 0x40, 3, // remap the same page post-reset
		2, 0x40, 1,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		factor := 1 << (data[0] & 3) // 1, 2, 4, 8
		r := mustNew(t, Config{Stripes: 16, CacheSlots: 128, Replicas: factor},
			func() pagetable.PageTable { return core.MustNew(core.Config{Buckets: 128}) })
		nodes := make([]*Node, r.Nodes())
		for i := range nodes {
			nodes[i] = r.Node(i)
		}
		model := make(map[addr.VPN]refEntry)

		check := func(n *Node, vpn addr.VPN, step int) {
			t.Helper()
			want, wok := model[vpn]
			ge, gok := r.Lookup(addr.VAOf(vpn))
			if gok != wok || (wok && (ge.PPN != want.ppn || ge.Attr != want.attr)) {
				t.Fatalf("step %d: interface lookup %#x = (%#x,%v,%v), model (%#x,%v,%v)",
					step, uint64(vpn), uint64(ge.PPN), ge.Attr, gok, uint64(want.ppn), want.attr, wok)
			}
			ne, nok := n.Lookup(addr.VAOf(vpn))
			if nok != wok || (wok && (ne.PPN != want.ppn || ne.Attr != want.attr)) {
				t.Fatalf("step %d: node %d lookup %#x = (%#x,%v,%v), model (%#x,%v,%v)",
					step, n.id, uint64(vpn), uint64(ne.PPN), ne.Attr, nok, uint64(want.ppn), want.attr, wok)
			}
		}

		steps := 0
		for i := 1; i+2 < len(data) && steps < 512; i += 3 {
			op, vb, nb := data[i], data[i+1], data[i+2]
			vpn := fuzzBase + addr.VPN(vb)
			node := nodes[int(nb)%len(nodes)]
			attr := pte.AttrR
			if vb&1 == 1 {
				attr |= pte.AttrW
			}
			// vpn -> ppn is an affine shift, so adjacent pages stay
			// physically contiguous and block promotion remains reachable.
			ppn := addr.PPN(0x800) + addr.PPN(vb)

			switch op % 6 {
			case 0: // map
				_, mapped := model[vpn]
				err := node.Map(vpn, ppn, attr)
				if mapped != (err != nil) || (err != nil && !errors.Is(err, pagetable.ErrAlreadyMapped)) {
					t.Fatalf("step %d: map %#x (model mapped=%v): %v", steps, uint64(vpn), mapped, err)
				}
				if !mapped {
					model[vpn] = refEntry{ppn: ppn, attr: attr}
				}

			case 1: // unmap
				_, mapped := model[vpn]
				err := node.Unmap(vpn)
				if mapped != (err == nil) || (err != nil && !errors.Is(err, pagetable.ErrNotMapped)) {
					t.Fatalf("step %d: unmap %#x (model mapped=%v): %v", steps, uint64(vpn), mapped, err)
				}
				delete(model, vpn)

			case 2: // touch: a replica-routed lookup
				check(node, vpn, steps)

			case 3: // demote: format-only, no translation may move
				node.Demote(vpn)

			case 4: // reset, kept rare so streams build real state between
				if vb < 0x20 {
					r.Reset()
					model = make(map[addr.VPN]refEntry)
					for ri, rep := range r.replicas {
						if got := rep.seq.Load(); got != 0 {
							t.Fatalf("step %d: replica %d seq %d after reset", steps, ri, got)
						}
					}
				}

			case 5: // map-range: up to 8 pages, stops at the first conflict
				pages := uint64(nb%8) + 1
				wantN, wantErr := uint64(0), false
				for p := uint64(0); p < pages; p++ {
					if _, ok := model[vpn+addr.VPN(p)]; ok {
						wantErr = true
						break
					}
					wantN++
				}
				n, err := node.MapRange(vpn, ppn, pages, attr)
				if uint64(n) != wantN || wantErr != (err != nil) {
					t.Fatalf("step %d: maprange %#x+%d = (%d,%v), model (%d, err=%v)",
						steps, uint64(vpn), pages, n, err, wantN, wantErr)
				}
				for p := uint64(0); p < wantN; p++ {
					model[vpn+addr.VPN(p)] = refEntry{ppn: ppn + addr.PPN(p), attr: attr}
				}
			}

			check(node, vpn, steps)
			if steps%64 == 63 {
				auditReplicated(t, r, "fuzz periodic")
			}
			steps++
		}

		// Full sweep over the universe through rotating nodes, then the
		// replica audit.
		for i := 0; i < 256; i++ {
			check(nodes[i%len(nodes)], fuzzBase+addr.VPN(i), -1)
		}
		auditReplicated(t, r, "fuzz final")
	})
}

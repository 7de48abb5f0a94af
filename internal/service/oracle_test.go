package service

import (
	"errors"
	"fmt"
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/core"
	"clusterpt/internal/forward"
	"clusterpt/internal/hashed"
	"clusterpt/internal/linear"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
	"clusterpt/internal/trace"
)

// The differential-testing oracle: every organization behind the
// service, at every replication factor, driven with one randomized op
// sequence per seed, must agree at every lookup with a plain
// map[vpn]→(ppn, attr) reference model — through the interface read
// path AND through a rotating node-bound read path, across a superpage
// phase, a mixed phase, Reset and a churn-profile write storm. The model
// is the specification; the organizations are independent
// implementations of it, and the translation caches sit in the
// comparison loop, so a single stale cache entry, a wrong demotion, a
// divergent error or a replica that missed a write round fails here.
//
// The comparison is translation coherence: (mapped?, PPN, Attr). Entry
// Kind/Size legitimately differ across organizations (a clustered table
// answers a superpage-covered page with Kind=superpage, a linear table
// with a base PTE), so they are not compared.

// refEntry is the reference model's value for one mapped page.
type refEntry struct {
	ppn  addr.PPN
	attr pte.Attr
}

// oracleOrgs are the organizations under test, in the order their
// subtests run. Small bucket counts raise chain collision rates.
var oracleOrgs = []struct {
	name  string
	build func() pagetable.PageTable
}{
	{"clustered", func() pagetable.PageTable { return core.MustNew(core.Config{Buckets: 512}) }},
	{"clustered-sparse", func() pagetable.PageTable {
		return core.MustNew(core.Config{Buckets: 128, SubblockFactor: 16, SparseNodes: true})
	}},
	{"hashed", func() pagetable.PageTable { return hashed.MustNew(hashed.Config{Buckets: 512}) }},
	{"forward", func() pagetable.PageTable { return forward.MustNew(forward.Config{}) }},
	{"linear", func() pagetable.PageTable { return linear.MustNew(linear.Config{}) }},
}

// churnStormMix is the write-storm phase: the stream is almost all
// mutation, the reuse pattern a churn profile inflicts on the service.
var churnStormMix = trace.OpMix{Lookup: 10, Map: 45, Unmap: 40, Protect: 5}

// surface is the operation set the Service and a Node share.
type surface interface {
	Lookup(va addr.V) (pte.Entry, bool)
	Map(vpn addr.VPN, ppn addr.PPN, attr pte.Attr) error
	Unmap(vpn addr.VPN) error
	Protect(r addr.Range, set, clear pte.Attr) error
	Demote(vpn addr.VPN) bool
}

// gccSnapshot is the address space every service test draws pages from.
func gccSnapshot(t testing.TB) trace.ProcessSnapshot {
	t.Helper()
	p, ok := trace.ProfileByName("gcc")
	if !ok {
		t.Fatal("no gcc profile")
	}
	return p.Snapshot()[0]
}

// memOf reports one table's measured arena occupancy.
func memOf(t pagetable.PageTable) pagetable.MemStats {
	if mr, ok := t.(pagetable.MemReporter); ok {
		return mr.MemStats()
	}
	return pagetable.MemStats{}
}

// auditReplicated is the post-quiesce audit: equal sequence stamps,
// replica-for-replica equal size and measured memory, incremental size
// accounting matching a ground-truth walk, and every surviving cache
// entry coherent with its own replica's table.
func auditReplicated(t *testing.T, s *Service, ctx string) {
	t.Helper()
	r0 := s.replicas[0]
	for i, rep := range s.replicas {
		if got, want := rep.seq.Load(), r0.seq.Load(); got != want {
			t.Errorf("%s: replica %d seq %d, replica 0 seq %d", ctx, i, got, want)
		}
		if got, want := rep.table.Size(), r0.table.Size(); got != want {
			t.Errorf("%s: replica %d size %+v, replica 0 %+v", ctx, i, got, want)
		}
		if got, want := memOf(rep.table), memOf(r0.table); got != want {
			t.Errorf("%s: replica %d memstats %+v, replica 0 %+v", ctx, i, got, want)
		}
		if a, ok := rep.table.(interface{ AuditSize() pagetable.Size }); ok {
			if got, want := rep.table.Size(), a.AuditSize(); got != want {
				t.Errorf("%s: replica %d Size %+v disagrees with AuditSize %+v", ctx, i, got, want)
			}
		}
		for slot := range rep.cache {
			vpn := tagVPN(rep.cache[slot].tag.Load())
			w, boff, ok := rep.cache[slot].load(vpn)
			if !ok {
				continue
			}
			c := pte.EntryFromWord(w, vpn, boff)
			e, _, ok := rep.table.Lookup(addr.VAOf(vpn))
			if !ok {
				t.Errorf("%s: replica %d slot %d: vpn %#x cached but not mapped", ctx, i, slot, uint64(vpn))
				continue
			}
			if e.PPN != c.PPN || e.Attr != c.Attr {
				t.Errorf("%s: replica %d slot %d: vpn %#x cached (%#x,%v), table (%#x,%v)",
					ctx, i, slot, uint64(vpn), uint64(c.PPN), c.Attr, uint64(e.PPN), e.Attr)
			}
		}
	}
}

// oracle is one differential run: the service, one Node per modeled
// node, and the reference model.
type oracle struct {
	t     *testing.T
	s     *Service
	nodes []*Node
	model map[addr.VPN]refEntry
}

// check compares the interface path and node n with the model on vpn.
func (o *oracle) check(n *Node, vpn addr.VPN, ctx string) {
	o.t.Helper()
	want, mapped := o.model[vpn]
	va := addr.VAOf(vpn)
	e, ok := o.s.Lookup(va)
	ne, nok := n.Lookup(va)
	if ok != mapped || nok != mapped || mapped &&
		(e.PPN != want.ppn || e.Attr != want.attr || ne.PPN != want.ppn || ne.Attr != want.attr) {
		o.t.Fatalf("%s: lookup %#x: interface (%#x,%v,%v), node %d (%#x,%v,%v), model (%#x,%v,%v)",
			ctx, uint64(vpn), uint64(e.PPN), e.Attr, ok, n.id, uint64(ne.PPN), ne.Attr, nok,
			uint64(want.ppn), want.attr, mapped)
	}
}

// superpagePhase installs 64KB mappings before the op phases: on
// organizations that can store a superpage PTE, directly into every
// replica's table (quiescent and symmetric, so the stamps stay equal);
// elsewhere as sixteen base pages through MapRange. Either
// representation must be indistinguishable through Lookup — that
// equivalence is what the paper's §5 compact formats promise.
func (o *oracle) superpagePhase(pages []addr.VPN) {
	o.t.Helper()
	const spPages = 16 // 64KB / 4KB, one page block at the default factor
	seen := map[addr.VPN]bool{}
	var blocks []addr.VPN
	for _, vpn := range pages {
		base := addr.BlockBase(vpn, 4)
		if !seen[base] {
			seen[base] = true
			blocks = append(blocks, base)
		}
		if len(blocks) == 8 {
			break
		}
	}
	_, compact := o.s.Table().(pagetable.SuperpageMapper)
	for i, base := range blocks {
		ppn := addr.PPN(0x800000 + i*spPages) // 64KB-aligned frames
		attr := pte.AttrR | pte.AttrX
		if compact {
			for _, rep := range o.s.replicas {
				if err := rep.table.(pagetable.SuperpageMapper).MapSuperpage(base, ppn, attr, addr.Size64K); err != nil {
					o.t.Fatalf("MapSuperpage(%#x): %v", uint64(base), err)
				}
			}
		} else if n, err := o.s.MapRange(base, ppn, spPages, attr); n != spPages || err != nil {
			o.t.Fatalf("expanding superpage %#x: %d pages, %v", uint64(base), n, err)
		}
		for off := addr.VPN(0); off < spPages; off++ {
			o.model[base+off] = refEntry{ppn: ppn + addr.PPN(off), attr: attr}
		}
	}
}

// drive runs one op phase. Every op goes through a randomly routed
// node (node 0's writes take the interface), and every lookup and
// mutation outcome is checked against the model.
func (o *oracle) drive(snap trace.ProcessSnapshot, seed uint64, mix trace.OpMix, steps int, phase string) {
	t := o.t
	t.Helper()
	stream := trace.NewOpStream(snap, seed, mix)
	route := trace.NewRNG(seed ^ 0x10DE)
	pages := snap.AllPages()
	for step := 0; step < steps; step++ {
		op := stream.Next()
		ctx := fmt.Sprintf("%s seed %#x step %d (%v %#x)", phase, seed, step, op.Kind, uint64(op.VPN))
		node := o.nodes[route.Intn(len(o.nodes))]
		var w surface = node
		if node.id == 0 {
			w = o.s
		}
		_, mapped := o.model[op.VPN]
		switch op.Kind {
		case trace.OpLookup:
			o.check(node, op.VPN, ctx)

		case trace.OpMap:
			err := w.Map(op.VPN, op.PPN, op.Attr)
			if mapped != (err != nil) || (err != nil && !errors.Is(err, pagetable.ErrAlreadyMapped)) {
				t.Fatalf("%s: map (model mapped=%v): %v", ctx, mapped, err)
			}
			if !mapped {
				o.model[op.VPN] = refEntry{ppn: op.PPN, attr: op.Attr}
			}

		case trace.OpUnmap:
			err := w.Unmap(op.VPN)
			if mapped != (err == nil) || (err != nil && !errors.Is(err, pagetable.ErrNotMapped)) {
				t.Fatalf("%s: unmap (model mapped=%v): %v", ctx, mapped, err)
			}
			delete(o.model, op.VPN)

		case trace.OpProtect:
			r := op.Range()
			if err := w.Protect(r, op.Set, op.Clear); err != nil {
				t.Fatalf("%s: protect: %v", ctx, err)
			}
			r.Pages(func(vpn addr.VPN) bool {
				if e, ok := o.model[vpn]; ok {
					e.attr = e.attr&^op.Clear | op.Set
					o.model[vpn] = e
				}
				return true
			})
		}

		// Demotion is a format-only rewrite: later lookups must see
		// every translation unchanged.
		if step%128 == 127 {
			w.Demote(pages[route.Intn(len(pages))])
		}

		// Periodic sweep through rotating nodes, so every replica's read
		// path is compared, not just the routed one, and divergence
		// surfaces within a few hundred steps of the buggy op.
		if step%512 == 511 {
			for i := 0; i < 48; i++ {
				o.check(o.nodes[(step+i)%len(o.nodes)], pages[route.Intn(len(pages))],
					fmt.Sprintf("%s seed %#x sweep@%d", phase, seed, step))
			}
		}
	}
	// Full agreement pass over every reachable page, via every node.
	for i, vpn := range pages {
		o.check(o.nodes[i%len(o.nodes)], vpn, fmt.Sprintf("%s seed %#x final", phase, seed))
	}
}

// oracleCfg is the service configuration every oracle run starts from.
var oracleCfg = Config{Stripes: 32, CacheSlots: 256}

func runOracle(t *testing.T, s *Service, seed uint64, steps int) {
	snap := gccSnapshot(t)
	pages := snap.AllPages()
	o := &oracle{t: t, s: s, model: map[addr.VPN]refEntry{}}
	for i := 0; i < s.Nodes(); i++ {
		o.nodes = append(o.nodes, s.Node(i))
	}

	o.superpagePhase(pages)
	auditReplicated(t, s, fmt.Sprintf("seed %#x post-superpage", seed))
	o.drive(snap, seed, trace.WriteHeavyMix, steps, "mixed")
	auditReplicated(t, s, fmt.Sprintf("seed %#x post-mixed", seed))

	// Reset and confirm every replica came back empty together.
	s.Reset()
	o.model = map[addr.VPN]refEntry{}
	for i := 0; i < 64; i++ {
		o.check(o.nodes[i%len(o.nodes)], pages[i%len(pages)], fmt.Sprintf("seed %#x post-reset", seed))
	}
	auditReplicated(t, s, fmt.Sprintf("seed %#x post-reset", seed))
	if seq := s.replicas[0].seq.Load(); seq != 0 {
		t.Fatalf("seed %#x: seq %d after Reset", seed, seq)
	}

	// Churn-profile write storm on the reused tables, then final audit.
	o.drive(snap, seed^0xC0442, churnStormMix, steps, "storm")
	auditReplicated(t, s, fmt.Sprintf("seed %#x post-storm", seed))

	if st := s.Stats(); st.Lookups() == 0 || st.Maps == 0 || st.Unmaps == 0 {
		t.Errorf("seed %#x: oracle did not exercise every path: %+v", seed, st)
	}
	// Nodes 1..7 route writes too, and a replica on another node is
	// remote to them even at replication factor 1 (the NUMA baseline: a
	// remote write pays remote-update lines); the tally must be live at
	// every factor.
	if sd := s.Shootdowns(); sd.Broadcasts == 0 || sd.Lines == 0 {
		t.Errorf("seed %#x: remote writes ran but the shootdown tally is empty: %+v", seed, sd)
	}
}

var oracleSeeds = []uint64{1, 2, 3, 0xC0FFEE, 0xFEEDFACE}

// TestDifferentialOracle runs a sequence twice as long against every
// organization handed to Wrap, the one-table constructor, once per seed,
// so a failure names the seed that reproduces it.
func TestDifferentialOracle(t *testing.T) {
	steps := 6000
	if testing.Short() {
		steps = 1200
	}
	for _, seed := range oracleSeeds {
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			t.Parallel()
			for _, org := range oracleOrgs {
				t.Run(org.name, func(t *testing.T) {
					runOracle(t, MustWrap(org.build(), oracleCfg), seed, steps)
				})
			}
		})
	}
}

// TestReplicaOracle runs the differential across 5 organizations ×
// R∈{1,2,4,8} × 5 seeds.
func TestReplicaOracle(t *testing.T) {
	steps := 3000
	if testing.Short() {
		steps = 600
	}
	for _, org := range oracleOrgs {
		for _, n := range []int{1, 2, 4, 8} {
			for _, seed := range oracleSeeds {
				t.Run(fmt.Sprintf("%s/r%d/seed=%#x", org.name, n, seed), func(t *testing.T) {
					t.Parallel()
					cfg := oracleCfg
					cfg.Replicas = n
					runOracle(t, mustNew(t, cfg, org.build), seed, steps)
				})
			}
		}
	}
}

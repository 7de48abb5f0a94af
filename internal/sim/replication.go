package sim

import (
	"errors"
	"fmt"

	"clusterpt/internal/addr"
	"clusterpt/internal/memcost"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
	"clusterpt/internal/service"
	"clusterpt/internal/trace"
)

// This file replays the Mitosis question in this codebase's terms: at
// what write rate does the shootdown tax of replicating a page table
// across NUMA nodes eat the read-locality win, per organization? Each
// point replays the identical eight per-node op streams against a
// service.Service replicated at one (factor, write-rate) coordinate; reads go
// through node-bound local paths priced by memcost.NUMAModel (remote
// walks cost RemoteFactor× lines), writes broadcast to every replica
// and pay the modeled IPI + remote-PTE-update lines. The replay is
// serial and deterministic per point; lanes only spread independent
// points, so results are byte-identical at any concurrency.

// ReplicationFactors is the swept replica-count axis.
func ReplicationFactors() []int { return []int{1, 2, 4, 8} }

// ReplicationWriteRates is the swept write-percentage axis: writePct of
// the ops mutate (half maps, half unmaps), the rest translate.
func ReplicationWriteRates() []int { return []int{0, 2, 10, 30} }

// ReplicationConfig parameterizes the replication points of one
// organization.
type ReplicationConfig struct {
	// Ops is the op count per (factor, write-rate) point.
	Ops int
	// Seed derives the per-node op streams; identical streams replay at
	// every coordinate so only the geometry differs between points.
	Seed uint64
}

// ReplicationPoint is one (factor, write-rate) coordinate's accounting.
type ReplicationPoint struct {
	Factor   int
	WritePct int
	// Ops splits into Lookups (of which Hits were cache hits) and
	// Writes (issued maps+unmaps, whether or not they applied).
	Ops     uint64
	Lookups uint64
	Hits    uint64
	Writes  uint64
	// LocalLines and RemoteLines price the node read paths' walks.
	LocalLines  uint64
	RemoteLines uint64
	// Shootdown is the write-broadcast coherence bill, population phase
	// excluded.
	Shootdown memcost.ShootdownTally
}

// ReadLinesPerLookup is the locality metric: walk lines (remote ones
// pre-scaled) per translation.
func (pt ReplicationPoint) ReadLinesPerLookup() float64 {
	if pt.Lookups == 0 {
		return 0
	}
	return float64(pt.LocalLines+pt.RemoteLines) / float64(pt.Lookups)
}

// TotalLinesPerOp folds the shootdown bill in: the crossover metric the
// experiment renders.
func (pt ReplicationPoint) TotalLinesPerOp() float64 {
	if pt.Ops == 0 {
		return 0
	}
	return float64(pt.LocalLines+pt.RemoteLines+pt.Shootdown.Lines) / float64(pt.Ops)
}

// ReplicationRow is one organization's full sweep, factor-major in
// ReplicationFactors × ReplicationWriteRates order.
type ReplicationRow struct {
	Workload string
	Org      string
	Points   []ReplicationPoint
}

// Point returns the sample at one (factor, writePct) coordinate.
func (r ReplicationRow) Point(factor, writePct int) (ReplicationPoint, bool) {
	for _, pt := range r.Points {
		if pt.Factor == factor && pt.WritePct == writePct {
			return pt, true
		}
	}
	return ReplicationPoint{}, false
}

// RunReplicationPoint replays one coordinate: populate every snapshot
// page, bind one reader to each of the eight modeled nodes, then
// round-robin the per-node streams serially — node i's k-th op always
// lands in the same global position, so the replay is exact.
func RunReplicationPoint(p trace.Profile, v TableVariant, factor, writePct int, cfg ReplicationConfig) (ReplicationPoint, error) {
	if cfg.Ops <= 0 {
		return ReplicationPoint{}, fmt.Errorf("sim: replication point needs a positive op budget")
	}
	if writePct < 0 || writePct > 100 {
		return ReplicationPoint{}, fmt.Errorf("sim: write rate %d%% out of range", writePct)
	}
	snap := p.ProcSnapshot(0)
	m := memcost.NewModel(256)
	r, err := service.New(service.Config{Stripes: 32, CacheSlots: 256, Replicas: factor},
		func(int) (pagetable.PageTable, error) { return v.New(m), nil })
	if err != nil {
		return ReplicationPoint{}, err
	}
	// One sorted page list serves the populate and every node's stream.
	pages := snap.AllPages()
	for _, vpn := range pages {
		if err := r.Map(vpn, addr.PPN(vpn), pte.AttrR|pte.AttrW); err != nil {
			return ReplicationPoint{}, fmt.Errorf("sim: populate %#x: %w", uint64(vpn), err)
		}
	}
	sdBase := r.Shootdowns()

	mix := trace.OpMix{Lookup: 100 - writePct, Map: writePct / 2, Unmap: writePct - writePct/2}
	nodes := make([]*service.Node, r.Nodes())
	streams := make([]*trace.OpStream, r.Nodes())
	for i := range nodes {
		nodes[i] = r.Node(i)
		streams[i] = trace.NewOpStreamOver(pages, trace.DeriveSeed(cfg.Seed, fmt.Sprintf("replication/node%d", i)), mix)
	}

	pt := ReplicationPoint{Factor: factor, WritePct: writePct, Ops: uint64(cfg.Ops)}
	for i := 0; i < cfg.Ops; i++ {
		node, op := nodes[i%len(nodes)], streams[i%len(streams)].Next()
		switch op.Kind {
		case trace.OpLookup:
			node.Lookup(addr.VAOf(op.VPN))
		case trace.OpMap:
			pt.Writes++
			if err := node.Map(op.VPN, op.PPN, op.Attr); err != nil && !errors.Is(err, pagetable.ErrAlreadyMapped) {
				return ReplicationPoint{}, fmt.Errorf("sim: replication map %#x: %w", uint64(op.VPN), err)
			}
		case trace.OpUnmap:
			pt.Writes++
			if err := node.Unmap(op.VPN); err != nil && !errors.Is(err, pagetable.ErrNotMapped) {
				return ReplicationPoint{}, fmt.Errorf("sim: replication unmap %#x: %w", uint64(op.VPN), err)
			}
		default:
			return ReplicationPoint{}, fmt.Errorf("sim: replication stream emitted %v with a zero-weight mix", op.Kind)
		}
	}
	for _, n := range nodes {
		c := n.Cost()
		pt.Lookups += c.Lookups()
		pt.Hits += c.Hits
		pt.LocalLines += c.LocalLines
		pt.RemoteLines += c.RemoteLines
	}
	pt.Shootdown = r.Shootdowns().Sub(sdBase)
	return pt, nil
}

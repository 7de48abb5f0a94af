package sim

import (
	"fmt"

	"clusterpt/internal/addr"
	"clusterpt/internal/forward"
	"clusterpt/internal/memcost"
	"clusterpt/internal/trace"
)

// GuardedRow compares the fixed seven-level forward-mapped walk with the
// guarded page table's path-compressed walk on one workload — the §2
// claim that short-circuit techniques are "partially effective but still
// require many levels", quantified.
type GuardedRow struct {
	Workload     string
	FixedLines   float64 // always the tree depth
	GuardedLines float64 // compressed depth
	GuardedMax   int     // deepest walk observed
	HashedLines  float64 // for the §2 conclusion: hashing still wins
}

// GuardedSweep builds both trees (and a hashed table) from a workload
// snapshot and measures lookup depth over every mapped page.
func GuardedSweep(p trace.Profile) (GuardedRow, error) {
	row := GuardedRow{Workload: p.Name}
	m := memcost.NewModel(0)
	var fixedN, guardedN, hashedN, lookups uint64
	for _, snap := range p.Snapshot() {
		fixed, err := BuildProcess(TableVariant{Name: "forward", New: variantForward}, BaseOnly, snap, m)
		if err != nil {
			return row, err
		}
		hashedB, err := BuildProcess(TableVariant{Name: "hashed", New: variantHashed}, BaseOnly, snap, m)
		if err != nil {
			return row, err
		}
		g := forward.MustNewGuarded(forward.GuardedConfig{CostModel: m})
		// Mirror the fixed build's frames into the guarded table.
		for _, vpn := range snap.AllPages() {
			e, _, ok := fixed.Table.Lookup(addr.VAOf(vpn))
			if !ok {
				return row, fmt.Errorf("sim: fixed tree lost %#x", uint64(vpn))
			}
			if err := g.Map(vpn, e.PPN, e.Attr); err != nil {
				return row, fmt.Errorf("sim: guarded map %#x: %w", uint64(vpn), err)
			}
		}
		for _, vpn := range snap.AllPages() {
			va := addr.VAOf(vpn)
			_, fc, ok := fixed.Table.Lookup(va)
			if !ok {
				return row, fmt.Errorf("sim: fixed lost %#x", uint64(vpn))
			}
			_, gc, ok := g.Lookup(va)
			if !ok {
				return row, fmt.Errorf("sim: guarded lost %#x", uint64(vpn))
			}
			_, hc, ok := hashedB.Table.Lookup(va)
			if !ok {
				return row, fmt.Errorf("sim: hashed lost %#x", uint64(vpn))
			}
			fixedN += uint64(fc.Lines)
			guardedN += uint64(gc.Lines)
			hashedN += uint64(hc.Lines)
			if gc.Nodes > row.GuardedMax {
				row.GuardedMax = gc.Nodes
			}
			lookups++
		}
	}
	if lookups == 0 {
		return row, fmt.Errorf("sim: %s: empty snapshot", p.Name)
	}
	row.FixedLines = float64(fixedN) / float64(lookups)
	row.GuardedLines = float64(guardedN) / float64(lookups)
	row.HashedLines = float64(hashedN) / float64(lookups)
	return row, nil
}

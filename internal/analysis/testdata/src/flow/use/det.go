package use

// Source-site and map-order cases: each nondeterministic value is
// rendered, so detflow flags it at the sink; each exemption is rendered
// too and must stay silent.

import (
	"math/rand"
	"sort"
	"time"

	"flow/rep"
)

func Clock(t *rep.Table) {
	now := time.Now()
	t.Row(now.UnixNano()) // want:detflow tainted by time.Now
}

func GlobalRand(t *rep.Table) {
	t.Row(rand.Intn(6)) // want:detflow tainted by math/rand.Intn
}

// LocalRand is fine: the constructors build a locally seeded source.
func LocalRand(t *rep.Table, seed int64) {
	r := rand.New(rand.NewSource(seed))
	t.Row(r.Intn(6))
}

// EmitMap renders clean values, but in map iteration order.
func EmitMap(t *rep.Table, m map[string]int) {
	for k, v := range m {
		t.Row(k, v) // want:detflow called in map iteration order
	}
}

func FloatAccum(t *rep.Table, m map[string]float64) {
	var sum float64
	for _, v := range m {
		sum += v
	}
	t.Row(sum) // want:detflow float accumulation in map iteration order
}

// IntAccum is fine: integer addition commutes, so map order is
// invisible in the result.
func IntAccum(t *rep.Table, m map[string]int) {
	var sum int
	for _, v := range m {
		sum += v
	}
	t.Row(sum)
}

func AppendTransformed(t *rep.Table, m map[string]int) {
	var out []int
	for _, v := range m {
		out = append(out, v*2)
	}
	t.Row(out) // want:detflow tainted by map iteration order
}

// SortedKeys is the canonical collect-and-sort idiom: the sort restores
// a canonical order before the keys are rendered.
func SortedKeys(t *rep.Table, m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	t.Row(keys)
}

// SortedVals collects values and sorts them — also canonical.
func SortedVals(t *rep.Table, m map[string]int) {
	var vals []int
	for _, v := range m {
		vals = append(vals, v)
	}
	sort.Ints(vals)
	t.Row(vals)
}

// KeyedWrites are order-insensitive: each iteration writes its own key.
func KeyedWrites(t *rep.Table, src map[string]int) {
	dst := map[string]int{}
	for k, v := range src {
		dst[k] = v + 1
	}
	t.Row(len(dst))
}

// AllowedAppend carries a justification: the row renders a multiset
// whose consumer ignores order.
func AllowedAppend(t *rep.Table, m map[string]int) {
	var out []int
	for _, v := range m {
		out = append(out, v)
	}
	t.Row(out) //ptlint:allow detflow consumer treats the row as an unordered multiset
}

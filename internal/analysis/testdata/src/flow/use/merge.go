package use

// Merge-order cases: accumulations made while ranging over a channel run
// in delivery order (completion order, i.e. scheduling), and those made
// while ranging over a map in Go's randomized order. Each result is
// rendered, so detflow flags it at the sink; the sanctioned shapes are
// rendered too and must stay silent.

import (
	"sort"

	"flow/rep"
)

// acc is a merge-shaped accumulator.
type acc struct {
	lane int
	n    uint64
}

func (a *acc) Add(b *acc)   { a.n += b.n }
func (a *acc) Merge(b *acc) { a.n += b.n }

// counter mimics bookkeeping structs: merge calls through a selector
// chain are bookkeeping, not result merges.
type counter struct {
	done *acc
}

func ChanRangeMergeCall(t *rep.Table, ch chan *acc, total *acc) {
	for part := range ch {
		total.Add(part)
	}
	t.Row(total.n) // want:detflow Add merge in channel delivery order
}

func ChanRangeFloatAccum(t *rep.Table, ch chan float64) {
	var sum float64
	for v := range ch {
		sum += v
	}
	t.Row(sum) // want:detflow float accumulation in channel delivery order
}

func ChanRangeAppend(t *rep.Table, ch chan int) {
	var out []int
	for v := range ch {
		out = append(out, v)
	}
	t.Row(out) // want:detflow tainted by channel delivery order
}

func MapRangeMergeCall(t *rep.Table, parts map[string]*acc, total *acc) {
	for _, p := range parts {
		total.Merge(p)
	}
	t.Row(total.n) // want:detflow Merge merge in map iteration order
}

// IndexedMerge is the sanctioned channel shape: results land by index,
// and the fold over them runs in fixed order after the lanes drain.
func IndexedMerge(t *rep.Table, ch chan *acc, n int) {
	results := make([]uint64, n)
	for r := range ch {
		results[r.lane] = r.n
	}
	var total uint64
	for _, v := range results {
		total += v
	}
	t.Row(total)
}

// SortedMerge is the sanctioned map shape: sort first, then merge over
// the slice in deterministic key order.
func SortedMerge(t *rep.Table, parts map[string]*acc, total *acc) {
	keys := make([]string, 0, len(parts))
	for k := range parts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		total.Add(parts[k])
	}
	t.Row(total.n)
}

// ChanIntAccum is fine: uint64 addition commutes, which is why per-lane
// counters may merge in any order.
func ChanIntAccum(t *rep.Table, ch chan uint64) {
	var total uint64
	for v := range ch {
		total += v
	}
	t.Row(total)
}

// LaneLocal is fine: the accumulator is declared inside the range, so
// nothing shared is mutated in delivery order, and each lane's result
// lands in that lane's own table.
func LaneLocal(tables []*rep.Table, ch chan *acc) {
	for part := range ch {
		local := &acc{}
		local.Add(part)
		tables[part.lane].Row(local.n)
	}
}

// SelectorReceiver is fine by design: rc.done.Add(1)-style bookkeeping
// through a selector chain is not a result merge.
func SelectorReceiver(t *rep.Table, ch chan int, c *counter) {
	for range ch {
		c.done.Add(&acc{n: 1})
	}
	t.Row(c.done.n)
}

// AllowedMerge carries a justification: a progress tally whose row is
// never compared across runs.
func AllowedMerge(t *rep.Table, ch chan *acc, progress *acc) {
	for part := range ch {
		progress.Add(part)
	}
	//ptlint:allow detflow progress tally only feeds a live spinner, never compared output
	t.Row(progress.n)
}

package trace

import (
	"clusterpt/internal/addr"
)

// Generator produces a deterministic reference trace over one process
// snapshot: each step picks a region by weight and the next page within
// it by the region's pattern. Only the page-level stream matters to a
// TLB; byte offsets are pseudo-random for realism.
type Generator struct {
	rng     *RNG
	regions []genRegion
	cum     []float64
	total   float64
}

type genRegion struct {
	pages   []addr.VPN
	pattern Pattern
	stride  uint64
	cursor  int
	perm    []int // chase cycle
}

// NewGenerator builds a trace generator for a snapshot. The seed is
// independent of the snapshot's: the same address space can be driven by
// different reference streams.
func NewGenerator(s ProcessSnapshot, seed uint64) *Generator {
	g := &Generator{rng: NewRNG(seed ^ 0xDA7A)}
	for _, r := range s.Regions {
		if len(r.Pages) == 0 || r.Spec.Weight <= 0 {
			continue
		}
		gr := genRegion{
			pages:   r.Pages,
			pattern: r.Spec.Pattern,
			stride:  r.Spec.Stride,
		}
		if gr.stride == 0 {
			gr.stride = 1
		}
		if gr.pattern == Chase {
			gr.perm = sattolo(g.rng, len(r.Pages))
		}
		g.regions = append(g.regions, gr)
		g.total += r.Spec.Weight
		g.cum = append(g.cum, g.total)
	}
	return g
}

// Next returns the next referenced virtual address.
func (g *Generator) Next() addr.V {
	if len(g.regions) == 0 {
		return 0
	}
	return g.emit(g.drawRegion())
}

// drawRegion consumes exactly one draw and returns the chosen region
// index. Weighted region choice: binary search for the first region
// whose cumulative weight exceeds the draw, clamped to the last region.
//
// This replaces a linear scan that advanced while x >= cum[ri], i.e.
// stopped at the first ri with x < cum[ri] (or the last region). The
// loop below computes exactly that index: it maintains the invariant
// that every index < lo has cum <= x and every index >= hi has
// cum > x or is the clamp, so it returns the same region for the
// same RNG draw — including the x == cum[ri] boundary, which is why
// this is hand-rolled with a strict < rather than sort.SearchFloat64s
// (whose >= predicate would step past an exact-equality draw).
func (g *Generator) drawRegion() int {
	x := g.rng.Float64() * g.total
	lo, hi := 0, len(g.cum)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if x < g.cum[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// emit consumes region ri's draws — one for the Random pattern's page
// choice plus one for the byte offset — advances its cursor, and
// returns the referenced address. drawRegion and emit together are
// exactly Next.
func (g *Generator) emit(ri int) addr.V {
	r := &g.regions[ri]
	var page addr.VPN
	switch r.pattern {
	case Sequential:
		page = r.pages[r.cursor]
		r.cursor = (r.cursor + 1) % len(r.pages)
	case Strided:
		page = r.pages[r.cursor]
		r.cursor = (r.cursor + int(r.stride)) % len(r.pages)
	case Chase:
		page = r.pages[r.cursor]
		r.cursor = r.perm[r.cursor]
	default: // Random
		page = r.pages[g.rng.Intn(len(r.pages))]
	}
	return addr.VAOf(page) + addr.V(g.rng.Uint64n(addr.BasePageSize)&^7)
}

// sattolo builds a single-cycle permutation: following it from any start
// visits every element before repeating, like chasing a randomly-linked
// list that threads the whole region.
func sattolo(rng *RNG, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Fill overwrites out with the next references and returns the filled
// slice. A nil out allocates capacity for n. A non-nil out is truncated
// and reused, and generation is clamped to cap(out), so a caller-owned
// buffer is never silently reallocated — len(result) < n tells the
// caller its buffer was smaller than the request. Fill is exactly n
// (or cap(out)) calls to Next, so chunking a replay through a reused
// buffer cannot change the reference stream.
func (g *Generator) Fill(out []addr.V, n int) []addr.V {
	if out == nil {
		out = make([]addr.V, 0, n)
	} else {
		out = out[:0]
		if n > cap(out) {
			n = cap(out)
		}
	}
	for i := 0; i < n; i++ {
		out = append(out, g.Next())
	}
	return out
}

package sim

import (
	"fmt"

	"clusterpt/internal/addr"
	"clusterpt/internal/cache"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/swtlb"
	"clusterpt/internal/trace"
)

// ResidencyRow is one workload's row of the §6.1 cache-residency
// ablation. The paper's lines-touched metric "ignores that some page
// table data may still be in cache, particularly for page tables that
// are smaller"; this experiment replays each walk's touched lines
// through a level-two cache that is also churned by the program's own
// data references, and reports the lines that actually *miss* — the
// number a real machine would stall on.
type ResidencyRow struct {
	Workload string
	// TouchedPerMiss is the paper's metric: lines accessed per TLB miss.
	TouchedPerMiss map[string]float64
	// MissedPerMiss is the ablation: lines missing in the L2 per TLB
	// miss, always ≤ touched.
	MissedPerMiss map[string]float64
}

// ResidencyConfig parameterizes the ablation.
type ResidencyConfig struct {
	// Refs is the trace length (default 200k).
	Refs int
	// CacheBytes is the L2 capacity (default 1MB).
	CacheBytes int
	// DataLinesPerRef is how many L2 lines of program data each
	// reference churns through the cache, creating the competition that
	// evicts page-table lines (default 1).
	DataLinesPerRef int
	// Seed perturbs the trace.
	Seed uint64
	// Buf is the reusable replay chunk buffer (nil allocates per run).
	Buf *ReplayBuf
}

func (c *ResidencyConfig) fill() {
	if c.Refs == 0 {
		c.Refs = 200_000
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 1 << 20
	}
	if c.DataLinesPerRef == 0 {
		c.DataLinesPerRef = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// arena assigns a page table's nodes synthetic physical line addresses:
// each walk's touched lines map to pseudo-random (but per-table
// deterministic) positions within an arena sized to the table's PTE
// footprint. Smaller footprints concentrate on fewer lines and so stay
// resident — exactly the effect under study.
type arena struct {
	base  uint64
	lines uint64
}

func newArena(id int, footprint uint64, lineSize int) *arena {
	lines := footprint / uint64(lineSize)
	if lines == 0 {
		lines = 1
	}
	return &arena{
		base:  uint64(id+1) << 40, // disjoint address regions per table
		lines: lines,
	}
}

// walkAddrs appends to dst n line addresses for one walk. The first
// line of a walk is placed by the faulting page (stable per page), and
// subsequent chain/level lines follow pseudo-randomly — a deterministic
// stand-in for real node placement.
func (a *arena) walkAddrs(dst []uint64, pageKey uint64, n int, lineSize int) []uint64 {
	line := pagetable.HashVPN(pageKey) % a.lines
	for i := 0; i < n; i++ {
		dst = append(dst, a.base+line*uint64(lineSize))
		line = pagetable.HashVPN(line+pageKey+uint64(i)) % a.lines
	}
	return dst
}

// residencyKernel replays the Figure 11a miss stream over its four
// organizations, refilled from the clustered table. Linear is walked like
// the others: residency charges its lines on the reference TLB's misses,
// not through reserved entries.
func residencyKernel() kernel {
	k := figureKernel(Fig11a) // Variants returns a fresh slice
	for i := range k.variants {
		k.variants[i].ReservedTLB = 0
	}
	return k
}

// RunResidency measures touched vs actually-missing page-table lines for
// the Figure 11a setting (single-page-size TLB, base PTEs).
func RunResidency(p trace.Profile, cfg ResidencyConfig) (ResidencyRow, error) {
	cfg.fill()
	row := ResidencyRow{
		Workload:       p.Name,
		TouchedPerMiss: map[string]float64{},
		MissedPerMiss:  map[string]float64{},
	}
	k := residencyKernel()
	var missed lineCounts
	var addrs []uint64 // one walk's line addresses, reused
	res, err := replayWorkload(k, p, AccessConfig{Refs: cfg.Refs, Entries: 64, Seed: cfg.Seed, Buf: cfg.Buf},
		[]MMUConfig{{}}, func(_ int, st *figureState) missHook {
			// Index-aligned with the variants: the hook stays free of map
			// lookups and map iteration.
			arenas := make([]*arena, len(st.builds))
			caches := make([]*cache.Cache, len(st.builds))
			for i, b := range st.builds {
				arenas[i] = newArena(i, b.Table.Size().PTEBytes, 256)
				caches[i] = cache.MustNew(cache.Config{SizeBytes: cfg.CacheBytes, LineSize: 256, Ways: 4})
			}
			dataRng := trace.NewRNG(cfg.Seed * 7777)
			churned := 0
			return func(refs int, va addr.V, c *walkCost) error {
				// Program data churns every cache (same stream for all)
				// with DataLinesPerRef fresh lines per reference, before
				// that reference's walk. The caches are read only here,
				// so the churn of the references since the last miss
				// catches up first.
				for ; churned < refs; churned++ {
					for d := 0; d < cfg.DataLinesPerRef; d++ {
						dataLine := dataRng.Uint64() % (uint64(cfg.CacheBytes) * 4 / 256)
						for _, ch := range caches {
							ch.Access(dataLine * 256)
						}
					}
				}
				vpn := uint64(addr.VPNOf(va))
				for i, ch := range caches {
					addrs = arenas[i].walkAddrs(addrs[:0], vpn, int(c[i]), 256)
					for _, a := range addrs {
						if !ch.Access(a) {
							missed[i]++
						}
					}
				}
				return nil
			}
		})
	if err != nil {
		return row, err
	}
	if res.misses == 0 {
		return row, fmt.Errorf("sim: %s: no misses", p.Name)
	}
	for i, v := range k.variants {
		row.TouchedPerMiss[v.Name] = float64(res.lines[0][i]) / float64(res.misses)
		row.MissedPerMiss[v.Name] = float64(missed[i]) / float64(res.misses)
	}
	return row, nil
}

// SwTLBRow is one point of the §7 software-TLB experiment: "A software
// TLB … makes it practical to use a slower forward-mapped page table."
// It reports lines per TLB miss for a raw table and the same table
// behind a 4096-entry software TLB.
type SwTLBRow struct {
	Workload  string
	Table     string
	RawLines  float64
	SwLines   float64
	SwHitRate float64
}

// swtlbKernel replays the single-page-size miss stream over the named
// raw table, which refills the TLB.
func swtlbKernel(tableName string) (kernel, error) {
	v := TableVariant{Name: tableName}
	switch tableName {
	case "forward-mapped":
		v.New = variantForward
	case "hashed":
		v.New = variantHashed
	case "clustered":
		v.New = variantClustered
	default:
		return kernel{}, fmt.Errorf("sim: unknown table %q", tableName)
	}
	return kernel{fig: Fig11a, variants: []TableVariant{v}}, nil
}

// SwTLBSweep runs a workload's single-page-size miss stream against a
// page table with and without a software TLB front-end.
func SwTLBSweep(p trace.Profile, tableName string, cfg AccessConfig) (SwTLBRow, error) {
	cfg.fill()
	row := SwTLBRow{Workload: p.Name, Table: tableName}
	k, err := swtlbKernel(tableName)
	if err != nil {
		return row, err
	}

	var swLines uint64
	var sws []*swtlb.Cache
	res, err := replayWorkload(k, p, cfg, []MMUConfig{{}},
		func(_ int, st *figureState) missHook {
			// The software TLB fronts the raw table itself; its probe on
			// every miss is what this experiment measures.
			sw := swtlb.MustNew(swtlb.Config{Entries: 4096, Ways: 2, CostModel: cfg.LineModel}, st.builds[0].Table)
			sws = append(sws, sw)
			return func(_ int, va addr.V, _ *walkCost) error {
				_, cost, ok := sw.Lookup(va)
				if !ok {
					return fmt.Errorf("software TLB lost %v", va)
				}
				swLines += uint64(cost.Lines)
				return nil
			}
		})
	if err != nil {
		return row, err
	}
	if res.misses == 0 {
		return row, fmt.Errorf("sim: %s: no misses", p.Name)
	}
	row.RawLines = float64(res.lines[0][0]) / float64(res.misses)
	row.SwLines = float64(swLines) / float64(res.misses)
	var swHits, swMisses uint64
	for _, sw := range sws {
		st := sw.CacheStats()
		swHits += st.Hits
		swMisses += st.Misses
	}
	if swHits+swMisses > 0 {
		row.SwHitRate = float64(swHits) / float64(swHits+swMisses)
	}
	return row, nil
}

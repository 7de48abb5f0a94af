package sim

import (
	"clusterpt/internal/memcost"
	"clusterpt/internal/trace"
)

// Table1Row is one workload's row of the Table 1 reproduction. The
// paper's absolute counts come from full program executions; ours are
// scaled to the simulated trace length, so the comparable quantities are
// the miss ratio, the percent of user time in TLB handling (40-cycle
// penalty, §6.2), and the hashed page-table footprint.
type Table1Row struct {
	Workload string
	// Accesses and Misses are simulated counts on a 64-entry
	// fully-associative single-page-size TLB.
	Accesses uint64
	Misses   uint64
	// MissRatio is Misses/Accesses.
	MissRatio float64
	// PctTLBTime is the §6.2 model: misses×40 cycles over user cycles
	// (one cycle per reference) plus miss handling.
	PctTLBTime float64
	// HashedKB is the measured hashed-page-table footprint.
	HashedKB float64
	// Paper is the original row for side-by-side reporting.
	Paper trace.Table1
}

// Table1Config parameterizes the characterization run.
type Table1Config struct {
	// Refs is the per-workload trace length (default 400k).
	Refs int
	// MissPenalty is the TLB miss penalty in cycles (default 40, §6.2).
	MissPenalty float64
	// Seed perturbs the traces.
	Seed uint64
	// Buf is the reusable replay chunk buffer (nil allocates per run).
	Buf *ReplayBuf
}

func (c *Table1Config) fill() {
	if c.Refs == 0 {
		c.Refs = 400_000
	}
	if c.MissPenalty == 0 {
		c.MissPenalty = 40
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// RunTable1 characterizes every traced workload on the base-case TLB and
// measures its hashed-page-table footprint.
func RunTable1(profiles []trace.Profile, cfg Table1Config) ([]Table1Row, error) {
	var rows []Table1Row
	for _, p := range profiles {
		row, err := RunTable1Row(p, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// table1Kernel replays the base-case miss stream: a single-page-size
// TLB over the hashed table, which refills it.
func table1Kernel() kernel {
	return kernel{fig: Fig11a, variants: []TableVariant{{Name: "hashed", New: variantHashed}}}
}

// RunTable1Row characterizes a single workload — one schedulable cell of
// the Table 1 experiment.
func RunTable1Row(p trace.Profile, cfg Table1Config) (Table1Row, error) {
	cfg.fill()
	m := memcost.NewModel(0)
	row := Table1Row{Workload: p.Name, Paper: p.Paper}
	k := table1Kernel()

	// The footprint sums every process's table: the kernel's build for a
	// replayed process, a fresh one for the rest.
	ptes := make([]uint64, len(p.Procs)) // 0 until built
	if !p.SnapshotOnly {
		res, err := replayWorkload(k, p, AccessConfig{Refs: cfg.Refs, Entries: 64, LineModel: m, Seed: cfg.Seed, Buf: cfg.Buf},
			[]MMUConfig{{}}, func(pi int, st *figureState) missHook {
				ptes[pi] = st.builds[0].Table.Size().PTEBytes
				return nil
			})
		if err != nil {
			return row, err
		}
		// Each trace step stands for Dwell same-page references; the
		// extra references are guaranteed hits on a fully-associative
		// TLB, so only the denominator scales.
		row.Accesses = res.accesses * p.DwellOrOne()
		row.Misses = res.misses
		if row.Accesses > 0 {
			row.MissRatio = float64(row.Misses) / float64(row.Accesses)
			missCycles := float64(row.Misses) * cfg.MissPenalty
			row.PctTLBTime = 100 * missCycles / (float64(row.Accesses) + missCycles)
		}
	}
	var total uint64
	for pi, snap := range p.Snapshot() {
		if ptes[pi] == 0 {
			b, err := BuildProcess(k.variants[0], BaseOnly, snap, m)
			if err != nil {
				return row, err
			}
			ptes[pi] = b.Table.Size().PTEBytes
		}
		total += ptes[pi]
	}
	row.HashedKB = float64(total) / 1024
	return row, nil
}

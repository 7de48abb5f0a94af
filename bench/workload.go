package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"clusterpt/internal/engine"
	"clusterpt/internal/trace"
)

// Workload is one set of inputs the benchmark runs.
type Workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	// Experiments are the engine experiments one round runs, in order;
	// the service workload has none.
	Experiments []string
}

// Workloads are the benchmark's workloads, in run order.
var Workloads = []Workload{
	{
		Name: "replay",
		Why:  "trace generation, reference TLB and page-table Lookup/LookupBlock: the ten Figure 11 style replay experiments, fig11d and verify included",
		Experiments: []string{"table1", "fig11a", "fig11b", "fig11c", "fig11d",
			"residency", "swtlb", "multiprog", "partition", "verify"},
	},
	{
		Name:        "mmu",
		Why:         "the hierarchy experiment: the only workload that runs the L2 TLB and the page-walk cache, over three pipelines replaying identical traces",
		Experiments: []string{"hierarchy"},
	},
	{
		Name:        "build",
		Why:         "the write side: Map/MapSuperpage/MapPartial through mm into ptalloc arenas, churn and replicated broadcast writes, little trace replay",
		Experiments: []string{"fig9", "fig10", "table2", "lines", "sweeps", "churn", "replication"},
	},
	{
		Name: "service",
		Why:  "closed loop of nproc clients on the concurrent service: lock-free translation cache and stripe locks, which no replay workload touches",
	},
}

// WorkloadByName resolves a workload name.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// DefaultRefs is the reference budget per workload trace: the paper's
// scaled trace length, and the budget the pinned digests are taken at.
const DefaultRefs = 400_000

//go:embed testdata/digests.json
var digestsJSON []byte

// digestFile pins the SHA-256 of each experiment's rendered bytes per
// seed, at one reference budget.
type digestFile struct {
	Refs  int                          `json:"refs"`
	Seeds map[string]map[string]string `json:"seeds"`
}

// pinnedDigests returns the pinned digests for (seed, refs), or nil when
// that point is not pinned.
func pinnedDigests(seed uint64, refs int) (map[string]string, error) {
	var f digestFile
	if err := json.Unmarshal(digestsJSON, &f); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	if f.Refs != refs {
		return nil, nil
	}
	return f.Seeds[fmt.Sprint(seed)], nil
}

// render writes results exactly as cmd/ptrepro prints them: each table,
// then each note followed by a blank line.
func render(w io.Writer, results []engine.ExperimentResult) {
	for _, r := range results {
		for _, t := range r.Tables {
			t.Render(w)
		}
		for _, n := range r.Notes {
			fmt.Fprintf(w, "%s\n\n", n)
		}
	}
}

// engineRig runs one workload's experiments through an engine whose
// hooks record every cell's wall time.
type engineRig struct {
	eng  *engine.Engine
	exps []string

	mu sync.Mutex
	// cellSum and cellMax feed the traced run's engine metrics.
	cellSum, cellMax time.Duration
}

// newEngineRig builds the engine the way ptrepro does by default: every
// CPU a worker, no intra-cell shards, the flat MMU. With labels set,
// every cell's goroutine (and the lanes it starts) carries experiment
// and cell profiler labels.
func newEngineRig(w Workload, seed uint64, refs int, labels bool) (*engineRig, error) {
	r := &engineRig{exps: w.Experiments}
	hooks := engine.Hooks{
		CellDone: func(_, _ string, wall time.Duration) {
			r.mu.Lock()
			r.cellSum += wall
			if wall > r.cellMax {
				r.cellMax = wall
			}
			r.mu.Unlock()
		},
	}
	if labels {
		hooks.CellStart = func(exp, cell string) {
			pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("experiment", exp, "cell", cell)))
		}
	}
	r.eng = engine.New(engine.Options{
		Refs:    refs,
		Seed:    seed,
		Workers: runtime.GOMAXPROCS(0),
		Shards:  1,
		Log:     io.Discard,
		Hooks:   hooks,
	})
	for _, name := range r.exps {
		if _, _, err := r.eng.Describe(name); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// expRun is one execution of one experiment.
type expRun struct {
	wall, cpu time.Duration
	// rendering is the part of wall spent rendering and hashing output.
	rendering time.Duration
	// engineWall is the experiment's wall time as the engine reports it.
	engineWall time.Duration
	digest     string
	err        error
}

// expRuns holds every execution of each experiment, in order.
type expRuns map[string][]expRun

// run executes one experiment, rendering and hashing its output as
// ptrepro would print it, and appends the execution to into.
func (r *engineRig) run(ctx context.Context, name string, into expRuns) {
	cpu0 := cpuTime()
	start := time.Now()
	results, err := r.eng.Run(ctx, name)
	r0 := time.Now()
	var buf bytes.Buffer
	render(&buf, results)
	hash := sha256.Sum256(buf.Bytes())
	er := expRun{
		rendering: time.Since(r0),
		digest:    hex.EncodeToString(hash[:]),
		err:       err,
	}
	for _, res := range results {
		er.engineWall += res.Stats.Wall
	}
	er.wall = time.Since(start)
	er.cpu = cpuTime() - cpu0
	into[name] = append(into[name], er)
}

// round executes every experiment once, in order.
func (r *engineRig) round(ctx context.Context, into expRuns) {
	for _, name := range r.exps {
		r.run(ctx, name, into)
	}
}

// medianRuns returns each experiment's median execution, in seconds,
// by one measure of an execution.
func medianRuns(runs expRuns, of func(expRun) time.Duration) []float64 {
	out := make([]float64, 0, len(runs))
	for _, ers := range runs {
		vs := make([]float64, len(ers))
		for i, er := range ers {
			vs[i] = of(er).Seconds()
		}
		out = append(out, median(vs))
	}
	return out
}

// checkRuns compares every execution's digest with the pinned one, or,
// at a point that is not pinned, with the experiment's first execution.
// An engine error (a verify FAIL included) fails its execution's check.
func checkRuns(runs expRuns, pinned map[string]string) checks {
	var c checks
	for name, ers := range runs {
		want := ers[0].digest
		if pinned != nil {
			want = pinned[name]
		}
		for _, er := range ers {
			c.check(er.err == nil && er.digest == want)
		}
	}
	return c
}

// profileSnapshots generates every workload profile's address spaces:
// the replay inputs every experiment derives its traces from.
func profileSnapshots() int {
	n := 0
	for _, p := range trace.Profiles() {
		n += len(p.Snapshot())
	}
	return n
}

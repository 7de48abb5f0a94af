// Package engine is the unified concurrent experiment engine behind the
// §6 harness. Every table and figure of the paper's evaluation is a
// registered Experiment; each experiment decomposes into independent
// cells — typically one (workload × variant × mode) point — that a
// bounded worker pool fans out and merges back in input order. Per-cell
// seeds derive deterministically from the base seed and the cell key
// (trace.DeriveSeed), so rendered output is byte-identical whether the
// pool runs one worker or many.
package engine

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"clusterpt/internal/report"
	"clusterpt/internal/sim"
)

// Experiment is one named entry of the evaluation registry.
type Experiment struct {
	// Name is the CLI-visible identifier (e.g. "fig11a").
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Deps names experiments whose results this one cross-references;
	// under "all" they are ordered (and rendered) first.
	Deps []string
	// Timing marks experiments whose rendered output includes wall-clock
	// measurements (the concurrent-* family). Their bytes legitimately
	// vary run to run, so the byte-identity determinism checks and the
	// golden-output test exclude them; everything else the engine
	// promises — cell order, seed derivation, table structure — still
	// holds for them.
	Timing bool
	// Run produces the experiment's tables. All randomness must flow
	// through the per-cell seeds Fan hands out, so results are
	// independent of worker count and scheduling order. Run may return
	// partially-assembled tables alongside an error (the verify
	// experiment does, so failed claims still render).
	Run func(ctx context.Context, rc *RunContext) (*Result, error)
}

// Result is one experiment's output: tables ready to render, plus
// optional free-form note lines printed after them.
type Result struct {
	Tables []*report.Table
	Notes  []string
}

// Stats is the instrumentation the engine collects per experiment.
type Stats struct {
	// Cells is the number of cells scheduled.
	Cells int
	// CellsDone is the number that completed.
	CellsDone int
	// Refs counts trace references the cells reported simulating.
	Refs uint64
	// Wall is the experiment's wall-clock time.
	Wall time.Duration
}

// ExperimentResult pairs an experiment's output with its run stats.
type ExperimentResult struct {
	Name   string
	Tables []*report.Table
	Notes  []string
	Stats  Stats
}

// Registry resolves experiment names to runners. The zero value is not
// usable; use NewRegistry or the package-level Default registry that
// the experiment definitions populate.
type Registry struct {
	order  []string
	byName map[string]*Experiment
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*Experiment{}}
}

// Register adds an experiment. Names must be unique and dependencies
// must already be registered — registration order is the canonical
// "all" order, so a dep registered later would be a cycle in disguise.
func (r *Registry) Register(e Experiment) error {
	if e.Name == "" || e.Run == nil {
		return fmt.Errorf("engine: experiment needs a name and a runner")
	}
	if e.Name == "all" {
		return fmt.Errorf("engine: %q is reserved", e.Name)
	}
	if _, dup := r.byName[e.Name]; dup {
		return fmt.Errorf("engine: duplicate experiment %q", e.Name)
	}
	for _, d := range e.Deps {
		if _, ok := r.byName[d]; !ok {
			return fmt.Errorf("engine: %s depends on unregistered %q", e.Name, d)
		}
	}
	exp := e
	r.byName[e.Name] = &exp
	r.order = append(r.order, e.Name)
	return nil
}

// Names returns the registered experiment names in "all" order.
func (r *Registry) Names() []string {
	return append([]string(nil), r.order...)
}

// Get resolves one name. Unknown names fail with the list of valid
// ones, so a typo at the CLI is self-correcting.
func (r *Registry) Get(name string) (*Experiment, error) {
	if e, ok := r.byName[name]; ok {
		return e, nil
	}
	return nil, fmt.Errorf("unknown experiment %q (valid: all, %s)",
		name, strings.Join(r.order, ", "))
}

// resolve expands a CLI selector into the experiments to run, in order.
func (r *Registry) resolve(name string) ([]*Experiment, error) {
	if name == "all" {
		out := make([]*Experiment, 0, len(r.order))
		for _, n := range r.order {
			out = append(out, r.byName[n])
		}
		return out, nil
	}
	e, err := r.Get(name)
	if err != nil {
		return nil, err
	}
	return []*Experiment{e}, nil
}

// std is the default registry; experiments.go fills it at init.
var std = NewRegistry()

// Default returns the registry holding the paper's evaluation.
func Default() *Registry { return std }

func mustRegister(e Experiment) {
	if err := std.Register(e); err != nil {
		panic(err)
	}
}

// Hooks are optional cell-level callbacks, invoked from worker
// goroutines (implementations must be safe for concurrent use).
type Hooks struct {
	CellStart func(experiment, cell string)
	CellDone  func(experiment, cell string, wall time.Duration)
}

// Options configures an Engine.
type Options struct {
	// Refs is the reference budget per workload trace (0 = 400,000,
	// the paper's scaled trace length).
	Refs int
	// Seed is the base seed; every cell derives its own stream from it
	// (0 = 1).
	Seed uint64
	// Workers bounds concurrent cells (0 = GOMAXPROCS).
	Workers int
	// Shards is the intra-cell lane budget of the cells scheduled by
	// FanSharded — the churn and replication experiments, whose cells
	// hold several independent replays: each cell may spread them over
	// up to this many goroutine lanes, carved out of the same Workers
	// budget rather than added to it. 0 or 1 runs every cell on one
	// lane. Results are byte-identical at every value.
	Shards int
	// MMU selects the translation hierarchy (-mmu flag) the replay
	// experiments model around each simulated TLB. The zero value is the
	// paper's flat single level; every previously rendered byte is
	// identical under it.
	MMU sim.MMUConfig
	// Replicas caps concurrently replaying replication points inside
	// each replication-experiment cell (each point holds up to eight
	// replica tables, so the cap bounds peak replica memory). 0 leaves
	// the lane grant in charge. Like Workers and Shards it is an
	// execution knob: results are byte-identical at every value.
	Replicas int
	// Verbose logs per-experiment progress lines to Log.
	Verbose bool
	// Log receives progress output (nil = os.Stderr).
	Log io.Writer
	// Hooks are optional cell-level instrumentation callbacks.
	Hooks Hooks
	// Registry overrides the experiment set (nil = Default()).
	Registry *Registry
}

func (o *Options) fill() {
	if o.Refs == 0 {
		o.Refs = 400_000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Shards < 1 {
		o.Shards = 1
	}
	if o.Log == nil {
		o.Log = os.Stderr
	}
	if o.Registry == nil {
		o.Registry = Default()
	}
}

// Engine schedules experiments over a bounded worker pool.
type Engine struct {
	opts Options
}

// New builds an engine; zero option fields take defaults.
func New(opts Options) *Engine {
	opts.fill()
	return &Engine{opts: opts}
}

// Names lists the experiments this engine can run.
func (e *Engine) Names() []string { return e.opts.Registry.Names() }

// Describe returns an experiment's description and dependencies.
func (e *Engine) Describe(name string) (desc string, deps []string, err error) {
	exp, err := e.opts.Registry.Get(name)
	if err != nil {
		return "", nil, err
	}
	return exp.Description, append([]string(nil), exp.Deps...), nil
}

// Run executes the named experiment — or every registered experiment,
// in registration (dependency) order, when name is "all" — and returns
// results in that order. On error, results completed so far (including
// any tables the failing experiment managed to assemble) are returned
// alongside the error so callers can still render them.
func (e *Engine) Run(ctx context.Context, name string) ([]ExperimentResult, error) {
	exps, err := e.opts.Registry.resolve(name)
	if err != nil {
		return nil, err
	}
	var out []ExperimentResult
	for _, exp := range exps {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		rc := &RunContext{eng: e, exp: exp.Name, Refs: e.opts.Refs, Seed: e.opts.Seed}
		if e.opts.Verbose {
			fmt.Fprintf(e.opts.Log, "engine: %s: starting (workers=%d, refs=%d)\n",
				exp.Name, e.opts.Workers, e.opts.Refs)
		}
		start := time.Now() //ptlint:allow nodeterminism Stats.Wall instrumentation; feeds -v stderr logs only, never rendered tables
		res, runErr := exp.Run(ctx, rc)
		st := rc.snapshot()
		st.Wall = time.Since(start) //ptlint:allow nodeterminism same wall-clock instrumentation as above
		if res != nil {
			out = append(out, ExperimentResult{
				Name: exp.Name, Tables: res.Tables, Notes: res.Notes, Stats: st,
			})
		}
		if e.opts.Verbose {
			fmt.Fprintf(e.opts.Log, "engine: %s: %d/%d cells, %s refs in %v (%s refs/s)\n",
				exp.Name, st.CellsDone, st.Cells, countStr(st.Refs),
				st.Wall.Round(time.Millisecond), rateStr(st.Refs, st.Wall))
		}
		if runErr != nil {
			return out, fmt.Errorf("%s: %w", exp.Name, runErr)
		}
	}
	return out, nil
}

// countStr renders a count compactly (1.2M, 430k, 987).
func countStr(n uint64) string {
	switch {
	case n >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 1_000:
		return fmt.Sprintf("%.0fk", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

func rateStr(n uint64, d time.Duration) string {
	if d <= 0 {
		return "∞"
	}
	return countStr(uint64(float64(n) / d.Seconds()))
}

package engine

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"clusterpt/internal/sim"
	"clusterpt/internal/trace"
)

// Cell is one schedulable unit of an experiment — typically a single
// (workload × variant × mode) point. Key must be unique within the
// experiment: it both labels the cell in progress hooks and determines
// the cell's derived seed, so two cells sharing a key would draw the
// same stream.
type Cell[T any] struct {
	Key string
	Run func(ctx context.Context, seed uint64) (T, error)
}

// RunContext is one experiment's window onto the engine: the shared
// reference budget and base seed, plus the counters behind Stats.
// Cells report the work they did through it; the engine reads it back
// when the experiment finishes.
type RunContext struct {
	eng  *Engine
	exp  string
	Refs int
	Seed uint64

	cells atomic.Int64
	done  atomic.Int64
	refs  atomic.Uint64
}

// Workers returns the pool bound cells will be fanned across.
func (rc *RunContext) Workers() int { return rc.eng.opts.Workers }

// Shards returns the intra-cell lane budget experiments pass to
// FanSharded (at least 1).
func (rc *RunContext) Shards() int {
	if s := rc.eng.opts.Shards; s > 1 {
		return s
	}
	return 1
}

// MMU returns the translation-hierarchy configuration experiments pass
// into their replay configs (the -mmu flag; zero value = flat).
func (rc *RunContext) MMU() sim.MMUConfig { return rc.eng.opts.MMU }

// ReplicaCap returns the -replicas execution cap on concurrently live
// replicated point replays (0 = uncapped; never affects bytes).
func (rc *RunContext) ReplicaCap() int { return rc.eng.opts.Replicas }

// CountRefs lets a cell report how many trace references it simulated;
// the total feeds the refs/sec instrumentation. Safe for concurrent use.
func (rc *RunContext) CountRefs(n uint64) { rc.refs.Add(n) }

func (rc *RunContext) snapshot() Stats {
	return Stats{
		Cells:     int(rc.cells.Load()),
		CellsDone: int(rc.done.Load()),
		Refs:      rc.refs.Load(),
	}
}

// Fan runs the cells over the engine's worker pool and returns their
// results in input order — the merge is by index, never by completion
// order, so parallel output is byte-identical to serial. Each cell
// receives a seed derived from (base seed, cell key): deterministic,
// collision-checked, and independent of which worker picks the cell up.
// The first cell error cancels the rest and is returned.
func Fan[T any](ctx context.Context, rc *RunContext, cells []Cell[T]) ([]T, error) {
	return fan(ctx, rc, cells, rc.Workers())
}

// fan is Fan with an explicit pool bound, so FanSharded can shrink the
// cell-level pool and spend the remaining workers inside cells.
func fan[T any](ctx context.Context, rc *RunContext, cells []Cell[T], workers int) ([]T, error) {
	if len(cells) == 0 {
		return nil, nil
	}
	seen := make(map[string]struct{}, len(cells))
	for _, c := range cells {
		if _, dup := seen[c.Key]; dup {
			return nil, fmt.Errorf("engine: duplicate cell key %q in %s", c.Key, rc.exp)
		}
		seen[c.Key] = struct{}{}
	}
	rc.cells.Add(int64(len(cells)))

	if workers > len(cells) {
		workers = len(cells)
	}
	if workers < 1 {
		workers = 1
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]T, len(cells))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}

	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns one replay chunk buffer; every cell this
			// worker runs reuses it (sim.ReplayBufFrom), so buffered
			// generation allocates once per worker, not per cell. Results
			// cannot depend on which worker ran a cell: the buffer only
			// carries chunk storage, never trace state.
			wctx := sim.WithReplayBuf(cctx)
			for i := range idx {
				if cctx.Err() != nil {
					continue // drain without running after cancellation
				}
				c := cells[i]
				if h := rc.eng.opts.Hooks.CellStart; h != nil {
					h(rc.exp, c.Key)
				}
				start := time.Now() //ptlint:allow nodeterminism per-cell wall time feeds the CellDone hook, not cell results
				var v T
				var err error
				// Profiler labels name the cell in CPU profiles; the
				// lanes a FanSharded cell starts inherit them.
				pprof.Do(wctx, pprof.Labels("experiment", rc.exp, "cell", c.Key), func(ctx context.Context) {
					v, err = c.Run(ctx, trace.DeriveSeed(rc.Seed, c.Key))
				})
				if err != nil {
					fail(fmt.Errorf("cell %s: %w", c.Key, err))
					continue
				}
				results[i] = v
				rc.done.Add(1)
				if h := rc.eng.opts.Hooks.CellDone; h != nil {
					h(rc.exp, c.Key, time.Since(start)) //ptlint:allow nodeterminism hook instrumentation, never rendered tables
				}
			}
		}()
	}
feed:
	for i := range cells {
		select {
		case idx <- i:
		case <-cctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err // parent cancellation, not a cell failure
	}
	return results, nil
}

// FanWith runs ad-hoc cells through a standalone pool with the engine's
// options — for drivers like cmd/ptsim that fan out work without going
// through a registered experiment. The label plays the experiment name's
// role in hooks and seed derivation keys.
func FanWith[T any](ctx context.Context, e *Engine, label string, cells []Cell[T]) ([]T, error) {
	rc := &RunContext{eng: e, exp: label, Refs: e.opts.Refs, Seed: e.opts.Seed}
	return Fan(ctx, rc, cells)
}

// Budget is a non-blocking pool of spare worker tokens that concurrent
// cells share for nested parallelism: a cell grabs what is free when it
// starts and returns it when it finishes. Grants are first-come —
// deliberately nondeterministic — which is safe only because lane
// counts never influence results: the churn and replication cells run
// the same independent replays at any lane count and merge them by
// index.
type Budget struct {
	tokens chan struct{}
}

// NewBudget creates a pool of n spare tokens.
func NewBudget(n int) *Budget {
	b := &Budget{tokens: make(chan struct{}, n)}
	for i := 0; i < n; i++ {
		b.tokens <- struct{}{}
	}
	return b
}

// TryAcquire takes up to want tokens without blocking and returns how
// many it got.
func (b *Budget) TryAcquire(want int) int {
	for got := 0; ; got++ {
		if got >= want {
			return got
		}
		select {
		case <-b.tokens:
		default:
			return got
		}
	}
}

// Release returns n tokens to the pool.
func (b *Budget) Release(n int) {
	for i := 0; i < n; i++ {
		b.tokens <- struct{}{}
	}
}

// ShardedCell is a Cell whose Run can spread its independent replays
// across lanes goroutine lanes (always >= 1). The result must not
// depend on lanes.
type ShardedCell[T any] struct {
	Key string
	Run func(ctx context.Context, seed uint64, lanes int) (T, error)
}

// FanSharded schedules cells with one worker budget shared between the
// cell level and the intra-cell shard level: the cell pool shrinks to
// max(1, Workers/shards) and the displaced workers become a spare-token
// Budget, so every cell runs with 1 + TryAcquire(shards-1) lanes. With
// many cells the pool stays busy and cells run mostly serial; as the
// tail drains, finished cells release their tokens and the stragglers
// pick up lanes — the weighted scheduler ptrepro's -shards flag
// exposes.
// shards <= 1 degrades to Fan with every cell at one lane.
func FanSharded[T any](ctx context.Context, rc *RunContext, shards int, cells []ShardedCell[T]) ([]T, error) {
	plain := make([]Cell[T], len(cells))
	if shards <= 1 {
		for i, c := range cells {
			run := c.Run
			plain[i] = Cell[T]{Key: c.Key, Run: func(ctx context.Context, seed uint64) (T, error) {
				return run(ctx, seed, 1)
			}}
		}
		return Fan(ctx, rc, plain)
	}
	workers := rc.Workers()
	pool := workers / shards
	if pool < 1 {
		pool = 1
	}
	spare := workers - pool
	if spare < 0 {
		spare = 0
	}
	budget := NewBudget(spare)
	for i, c := range cells {
		run := c.Run
		plain[i] = Cell[T]{Key: c.Key, Run: func(ctx context.Context, seed uint64) (T, error) {
			extra := budget.TryAcquire(shards - 1)
			defer budget.Release(extra)
			return run(ctx, seed, 1+extra)
		}}
	}
	return fan(ctx, rc, plain, pool)
}

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
// same stream. Cells that must replay one stream (the organizations of
// a churn pair, the points of a replication row) ignore the seed and
// derive theirs from a key they share.
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

// MMU returns the translation-hierarchy configuration experiments pass
// into their replay configs (the -mmu flag; zero value = flat).
func (rc *RunContext) MMU() sim.MMUConfig { return rc.eng.opts.MMU }

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

	workers := rc.Workers()
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
				start := time.Now()
				var v T
				var err error
				// Profiler labels name the cell in CPU profiles.
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
					h(rc.exp, c.Key, time.Since(start))
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

package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"
)

// Options configures a benchmark run.
type Options struct {
	// Workload names one workload; empty runs all of them in turn.
	Workload string
	// Seed is the workload seed every input derives from.
	Seed uint64
	// Seconds is the measured time per workload: the service load runs
	// this long, the engine workloads repeat experiments that still fit
	// in it.
	Seconds float64
	// Refs is the reference budget per workload trace.
	Refs int
	// Trace runs the traced per-layer breakdown instead of the
	// end-to-end measurement.
	Trace bool
	// TraceOut, when set, receives the traced run's spans as JSON.
	TraceOut string
	// CPUProfile and MemProfile, when set, receive pprof profiles.
	CPUProfile, MemProfile string
}

// Report is what one child process measured.
type Report struct {
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Notes are informational lines: sample counts and the like.
	Notes []string `json:"notes,omitempty"`
}

func (r *Report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *Report) addChecks(c checks) {
	r.Attempted += c.attempted
	r.Failed += c.failed
}

// runChild runs one workload (or, with o.Trace, the traced breakdown)
// in this process. It calls mark(readyLine) once set-up is done, and
// returns right after with setupOnly; it calls mark(roundLine) at the
// end of every complete round, up to which the resident set is reported.
func runChild(ctx context.Context, o Options, setupOnly bool, mark func(string)) (Report, error) {
	if o.Trace {
		mark(readyLine)
		return runTraced(ctx, o)
	}
	w, ok := WorkloadByName(o.Workload)
	if !ok {
		return Report{}, fmt.Errorf("unknown workload %q", o.Workload)
	}
	if w.Experiments == nil {
		return runService(ctx, o, setupOnly, mark)
	}
	return runEngine(ctx, w, o, setupOnly, mark)
}

// runEngine measures an engine workload. It runs one full round over
// the experiments, then keeps cycling through them, skipping every
// execution that, timed as the experiment's previous one, would end
// after o.Seconds, until none fits. So the run ends near o.Seconds
// however long a round is. Each experiment counts at its median
// execution: wall_s and cpu_s add them up, and a request, for the
// latency percentiles, is one experiment, as a ptrepro user waits for
// it. The resident set is reported over the complete rounds only, whose
// mix of experiments does not depend on how fast the host runs.
func runEngine(ctx context.Context, w Workload, o Options, setupOnly bool, mark func(string)) (Report, error) {
	rig, err := newEngineRig(w, o.Seed, o.Refs, o.CPUProfile != "")
	if err != nil {
		return Report{}, err
	}
	pinned, err := pinnedDigests(o.Seed, o.Refs)
	if err != nil {
		return Report{}, err
	}
	snaps := profileSnapshots()
	mark(readyLine)
	if setupOnly {
		return Report{}, nil
	}
	runs := expRuns{}
	budget := time.Duration(o.Seconds * float64(time.Second))
	start := time.Now()
	execs := 0
	for cycle := 0; ; cycle++ {
		ran := 0
		for _, name := range w.Experiments {
			if err := ctx.Err(); err != nil {
				return Report{}, err
			}
			if prev := runs[name]; cycle > 0 && time.Since(start)+prev[len(prev)-1].wall > budget {
				continue
			}
			rig.run(ctx, name, runs)
			ran++
		}
		execs += ran
		if ran == len(w.Experiments) {
			mark(roundLine)
		}
		if ran == 0 {
			break
		}
	}
	r := Report{Metrics: map[string]float64{}}
	r.addChecks(checkRuns(runs, pinned))
	walls := medianRuns(runs, func(er expRun) time.Duration { return er.wall })
	r.Metrics["wall_s"] = sum(walls)
	r.Metrics["cpu_s"] = sum(medianRuns(runs, func(er expRun) time.Duration { return er.cpu }))
	r.Metrics["latency_p50_us"] = quantile(walls, 0.50) * 1e6
	r.Metrics["latency_p90_us"] = quantile(walls, 0.90) * 1e6
	r.note("%d executions of %d experiments (%.2f rounds) in %.1fs over %d snapshots",
		execs, len(w.Experiments), float64(execs)/float64(len(w.Experiments)), time.Since(start).Seconds(), snaps)
	if pinned != nil {
		r.note("digests checked against the pinned seed %d", o.Seed)
	} else {
		r.note("seed %d at refs %d is not pinned: executions checked against each experiment's first", o.Seed, o.Refs)
	}
	return r, nil
}

// runService measures the closed loop: an oracle pass, a warm-up of a
// second (a tenth of o.Seconds if that is shorter), o.Seconds measured,
// then the post-quiesce audit. The resident set is reported up to the
// end of the load.
func runService(ctx context.Context, o Options, setupOnly bool, mark func(string)) (Report, error) {
	snap, err := serviceSnapshot()
	if err != nil {
		return Report{}, err
	}
	svc, _, err := newServing(snap)
	if err != nil {
		return Report{}, err
	}
	streams := serviceStreams(snap, o.Seed, runtime.GOMAXPROCS(0))
	mark(readyLine)
	if setupOnly {
		return Report{}, nil
	}
	r := Report{Metrics: map[string]float64{}}
	oracle, err := serviceOracle(snap, o.Seed, o.Refs/2)
	if err != nil {
		return Report{}, err
	}
	r.addChecks(oracle)
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}
	dur := time.Duration(o.Seconds * float64(time.Second))
	load := runLoad(svc, streams, min(time.Second, dur/10), dur)
	mark(roundLine)
	var ops int64
	var walls, p50s, p90s []float64
	for _, c := range load.clients {
		ops += c.ops
		r.addChecks(c.checks)
		for _, w := range c.windows {
			walls = append(walls, w.wall.Seconds()*serviceRoundOps/float64(w.ops))
			p50s = append(p50s, w.p50)
			p90s = append(p90s, w.p90)
		}
	}
	r.addChecks(serviceAudit(svc, snap))
	if len(walls) == 0 {
		return Report{}, fmt.Errorf("service: no client completed a window in %v", dur)
	}
	r.Metrics["wall_s"] = median(walls)
	r.Metrics["cpu_s"] = load.cpu.Seconds() * serviceRoundOps / float64(ops)
	r.Metrics["latency_p50_us"] = median(p50s) / 1e3
	r.Metrics["latency_p90_us"] = median(p90s) / 1e3
	r.note("%d clients, %.0f requests/s, hit ratio %.3f; medians over %d windows of n=%d requests in all",
		len(streams), float64(ops)/load.measured.Seconds(), svc.Stats().HitRate(), len(walls), ops)
	return r, nil
}

// quantile returns the q-quantile of vs, interpolating linearly between
// neighbouring values, or 0 for no values.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	r := q * float64(len(s)-1)
	i := int(r)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i] + (r-float64(i))*(s[i+1]-s[i])
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

package bench

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"clusterpt/internal/memcost"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/sim"
	"clusterpt/internal/trace"
)

// The traced run gives the per-layer breakdown. It runs apart from the
// end-to-end runs, whose numbers it must not disturb, and times each
// layer from outside by wrapping the public calls into it: one round of
// each engine workload with cell hooks, a short service load, Figures
// 11a and 11d replayed layer by layer under the flat and l2+pwc
// pipelines (and once untraced, to check the counts and price the
// tracing), and the table builds, churn and replication points.

// tracedWorkloads are the profiles the traced Figure 11 cells replay.
var tracedWorkloads = []string{"gcc", "coral", "ML"}

// tracedModes are the -mmu pipelines the traced cells run under.
var tracedModes = []string{"flat", "l2+pwc"}

func runTraced(ctx context.Context, o Options) (Report, error) {
	rec := newRecorder()
	r := Report{Metrics: map[string]float64{}}
	m := r.Metrics

	if err := tracedEngine(ctx, o, &r); err != nil {
		return r, err
	}
	if err := tracedService(o, &r); err != nil {
		return r, err
	}
	if err := tracedFigures(ctx, rec, o, &r); err != nil {
		return r, err
	}
	if err := tracedBuilds(rec, &r); err != nil {
		return r, err
	}
	if err := tracedChurn(rec, o, &r); err != nil {
		return r, err
	}
	m["sim.replay_build_share"] = ratio(sumDur(rec, "sim.build", isFlat), sumDur(rec, "cell", isFlat))
	if o.TraceOut != "" {
		if err := rec.write(o.TraceOut, o.Seed, o.Refs); err != nil {
			return r, err
		}
	}
	return r, nil
}

// goDelta records a workload's Go runtime cost between two snapshots.
func goDelta(m map[string]float64, workload string, a, b *runtime.MemStats) {
	m["go."+workload+".alloc_mb"] = float64(b.TotalAlloc-a.TotalAlloc) / 1e6
	m["go."+workload+".gc_cycles"] = float64(b.NumGC - a.NumGC)
	m["go."+workload+".gc_pause_ms"] = float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6
}

// tracedEngine runs one round of each engine workload with cell hooks.
func tracedEngine(ctx context.Context, o Options, r *Report) error {
	m := r.Metrics
	var wall, cellSum, cellMax, render time.Duration
	for _, w := range Workloads {
		if w.Experiments == nil {
			continue
		}
		rig, err := newEngineRig(w, o.Seed, o.Refs, o.CPUProfile != "")
		if err != nil {
			return err
		}
		pinned, err := pinnedDigests(o.Seed, o.Refs)
		if err != nil {
			return err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		runs := expRuns{}
		rig.round(ctx, runs)
		runtime.ReadMemStats(&after)
		goDelta(m, w.Name, &before, &after)
		r.addChecks(checkRuns(runs, pinned))
		for _, exp := range w.Experiments {
			er := runs[exp][0]
			m["engine."+exp+".wall_s"] = er.engineWall.Seconds()
			wall += er.wall
			render += er.rendering
		}
		cellSum += rig.cellSum
		cellMax = max(cellMax, rig.cellMax)
	}
	m["engine.cell_max_s"] = cellMax.Seconds()
	m["engine.busy_frac"] = cellSum.Seconds() / (float64(runtime.GOMAXPROCS(0)) * wall.Seconds())
	m["report.render_ms"] = float64(render) / 1e6
	return nil
}

// tracedService runs the closed loop for a fifth of o.Seconds and reads
// the service's own counters.
func tracedService(o Options, r *Report) error {
	m := r.Metrics
	snap, err := serviceSnapshot()
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	svc, _, err := newServing(snap)
	if err != nil {
		return err
	}
	streams := serviceStreams(snap, o.Seed, runtime.GOMAXPROCS(0))
	dur := time.Duration(o.Seconds / 5 * float64(time.Second))
	load := runLoad(svc, streams, dur/10, dur)
	runtime.ReadMemStats(&after)
	goDelta(m, "service", &before, &after)
	var lookups, writes Hist
	for _, c := range load.clients {
		lookups.Merge(&c.lookups)
		writes.Merge(&c.writes)
		r.addChecks(c.checks)
	}
	r.addChecks(serviceAudit(svc, snap))
	st := svc.Stats()
	ops := st.Lookups() + st.Maps + st.MapConflicts + st.Unmaps + st.UnmapMisses + st.Protects
	m["service.hit_ratio"] = st.HitRate()
	m["service.fills_per_op"] = ratio(int64(st.Fills), int64(ops))
	m["service.map_conflict_ratio"] = ratio(int64(st.MapConflicts), int64(st.Maps+st.MapConflicts))
	m["service.lookup_p50_ns"] = lookups.Quantile(0.50)
	m["service.lookup_p99_ns"] = lookups.Quantile(0.99)
	m["service.write_p50_ns"] = writes.Quantile(0.50)
	m["service.write_p99_ns"] = writes.Quantile(0.99)
	r.note("service: %d lookups, %d writes timed", lookups.Count(), writes.Count())
	return nil
}

func isFlat(cell string) bool { return strings.HasSuffix(cell, "/flat") }

// cellIs matches the traced Figure 11 cells of one figure and mode.
func cellIs(fig, mode string) func(string) bool {
	return func(cell string) bool {
		return strings.HasPrefix(cell, fig+"/") && strings.HasSuffix(cell, "/"+mode)
	}
}

func sumDur(rec *recorder, name string, keep func(string) bool) int64 {
	d, _, _ := rec.sum(name, keep)
	return d
}

func ratio[T int64 | uint64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// tracedFigures replays the traced Figure 11 cells, checks their counts
// against untraced sim.RunFigure11 rows, and derives the TLB, walk and
// hierarchy metrics from the spans.
func tracedFigures(ctx context.Context, rec *recorder, o Options, r *Report) error {
	m := r.Metrics
	var c checks
	var traced, untraced time.Duration
	type total struct{ misses, accesses, l2Hits, pwcCalls, pwcHits uint64 }
	totals := map[string]*total{} // by "fig/mode"
	lines := map[string]uint64{}  // by "org.fig", flat
	var hashedProbes uint64       // fig11d, flat
	for _, mode := range tracedModes {
		mcfg, err := sim.ParseMMU(mode)
		if err != nil {
			return err
		}
		for _, f := range []sim.Figure{sim.Fig11a, sim.Fig11d} {
			t := &total{}
			totals[f.String()+"/"+mode] = t
			for _, name := range tracedWorkloads {
				if err := ctx.Err(); err != nil {
					return err
				}
				p, ok := trace.ProfileByName(name)
				if !ok {
					return fmt.Errorf("no profile %q", name)
				}
				// The engine's seed for this Figure 11 cell.
				seed := trace.DeriveSeed(o.Seed, f.String()+"/"+name)
				start := time.Now()
				fc, err := tracedFigure(rec, f, p, mode, o.Refs, seed)
				if err != nil {
					return err
				}
				traced += time.Since(start)
				start = time.Now()
				row, err := sim.RunFigure11(f, p, sim.AccessConfig{Refs: o.Refs, Seed: seed, MMU: mcfg})
				if err != nil {
					return err
				}
				untraced += time.Since(start)
				c.check(row.RefMisses == fc.refMisses)
				for _, v := range f.Variants() {
					c.check(row.AvgLines[v.Name] == fc.avgLines(v.Name))
					if mode == "flat" {
						lines[orgLayer[v.Name]+"."+f.String()] += fc.lines[v.Name]
					}
				}
				if mode == "flat" && f == sim.Fig11d {
					hashedProbes += fc.probes["hashed"]
				}
				t.misses += fc.refMisses
				t.accesses += fc.refAccesses
				t.l2Hits += fc.l2Hits
				t.pwcCalls += fc.pwcCalls
				t.pwcHits += fc.pwcHits
			}
		}
	}
	r.addChecks(c)

	perCount := func(name string, keep func(string) bool, self bool) float64 {
		d, s, n := rec.sum(name, keep)
		if self {
			d = s
		}
		return ratio(d, n)
	}
	fill, _, refs := rec.sum("trace.fill", func(string) bool { return true })
	m["trace.fill_ns_per_ref"] = ratio(fill, refs)
	m["tlb.insert_ns"] = perCount("tlb.insert", isFlat, false)
	for _, f := range []string{"fig11a", "fig11d"} {
		flat := cellIs(f, "flat")
		t := totals[f+"/flat"]
		m["tlb."+f+".access_ns"] = perCount("tlb.access", flat, true)
		m["tlb."+f+".miss_ratio"] = ratio(t.misses, t.accesses)
		for _, org := range []string{"core", "hashed", "forward", "linear"} {
			m[org+"."+f+".walk_ns"] = ratio(uint64(sumDur(rec, org+".walk", flat)), t.misses)
			m[org+"."+f+".lines_per_miss"] = ratio(lines[org+"."+f], t.misses)
		}
	}
	m["hashed.fig11d.probes_per_miss"] = ratio(hashedProbes, totals["fig11d/flat"].misses)
	pw := cellIs("fig11a", "l2+pwc")
	t := totals["fig11a/l2+pwc"]
	m["mmu.access_ns"] = perCount("tlb.access", pw, true)
	m["mmu.l2_hit_ratio"] = ratio(t.l2Hits, t.misses)
	m["walkcache.hit_ratio"] = ratio(t.pwcHits, t.pwcCalls)
	m["mmu.filter_walk_ns"] = perCount("mmu.filter_walk", pw, false)
	m["bench.trace_overhead_s"] = (traced - untraced).Seconds()
	r.note("traced Figure 11 cells: %.2fs traced, %.2fs untraced", traced.Seconds(), untraced.Seconds())
	return nil
}

// buildVariant pairs a build metric name with its organization and PTE
// mode.
type buildVariant struct {
	name string
	v    sim.TableVariant
	mode sim.PTEMode
}

func tracedBuildVariants() []buildVariant {
	var out []buildVariant
	for _, v := range sim.SizeVariants() {
		out = append(out, buildVariant{v.Name, v, sim.BaseOnly})
	}
	for _, v := range sim.Fig10Variants() {
		if v.Name == "clustered+psb" || v.Name == "hashed+superpage" {
			// "+" is outside the metric-name alphabet.
			out = append(out, buildVariant{strings.ReplaceAll(v.Name, "+", "_"), v.TableVariant, v.Mode})
		}
	}
	return out
}

// buildReps repeats the traced table builds, which take milliseconds.
const buildReps = 3

// tracedBuilds times sim.BuildProcess for every profile under each
// build variant and reads the arenas' measured bytes per page.
func tracedBuilds(rec *recorder, r *Report) error {
	model := memcost.NewModel(0)
	for _, bv := range tracedBuildVariants() {
		cell := "build/" + bv.name
		var pages, live uint64
		for rep := 0; rep < buildReps; rep++ {
			for _, p := range trace.Profiles() {
				for _, snap := range p.Snapshot() {
					sp := rec.begin("sim.build", cell, 0)
					b, err := sim.BuildProcess(bv.v, bv.mode, snap, model)
					if err != nil {
						return fmt.Errorf("%s: %w", cell, err)
					}
					rec.end(sp, int64(snap.MappedPages()))
					if rep == 0 {
						pages += snap.MappedPages()
						if mr, ok := b.Table.(pagetable.MemReporter); ok {
							live += mr.MemStats().LiveBytes()
						}
					}
				}
			}
		}
		d, _, n := rec.sum("sim.build", func(c string) bool { return c == cell })
		r.Metrics["sim.build."+bv.name+".ns_per_page"] = ratio(d, n)
		r.Metrics["ptalloc."+bv.name+".bytes_per_page"] = ratio(live, pages)
	}
	return nil
}

// tracedChurn times sim.RunChurn on the clustered organization, oracle
// on, and sim.RunReplicationPoint at 10% writes.
func tracedChurn(rec *recorder, o Options, r *Report) error {
	var clustered sim.TableVariant
	for _, v := range sim.ChurnVariants() {
		if v.Name == "clustered" {
			clustered = v
		}
	}
	if clustered.New == nil {
		return fmt.Errorf("no clustered churn variant")
	}
	var c checks
	for _, pair := range churnProfiles {
		cp, ok := trace.ChurnProfileByName(pair[0])
		p, ok2 := trace.ProfileByName(pair[1])
		if !ok || !ok2 {
			return fmt.Errorf("no churn pair %v", pair)
		}
		cell := "churn/" + pair[0] + "/" + pair[1]
		sp := rec.begin("sim.churn", cell, 0)
		_, err := sim.RunChurn(p, cp, clustered, sim.ChurnConfig{
			Refs: max(o.Refs/4, 1), Seed: trace.DeriveSeed(o.Seed, cell), Check: true,
		})
		rec.end(sp, 1)
		c.check(err == nil)
		r.Metrics["sim.churn."+pair[0]+".s"] = float64(rec.spans[sp-1].Dur) / 1e9
	}
	gcc, ok := trace.ProfileByName("gcc")
	if !ok {
		return fmt.Errorf("no gcc profile")
	}
	for _, f := range sim.ReplicationFactors() {
		cell := fmt.Sprintf("replication/r%d", f)
		sp := rec.begin("sim.replication", cell, 0)
		_, err := sim.RunReplicationPoint(gcc, clustered, f, 10, sim.ReplicationConfig{
			Ops: max(o.Refs/4, 1), Seed: trace.DeriveSeed(o.Seed, "replication/clustered"),
		})
		rec.end(sp, 1)
		c.check(err == nil)
		r.Metrics[fmt.Sprintf("sim.replication.r%d.s", f)] = float64(rec.spans[sp-1].Dur) / 1e9
	}
	r.addChecks(c)
	return nil
}

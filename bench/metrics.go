package bench

import (
	"fmt"

	"clusterpt/internal/sim"
)

// Spec declares one metric: its name, unit, and which direction is
// better. BENCHMARK.json lists the same specs; a test keeps the two in
// step.
type Spec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// EndToEnd are the metrics an untraced run reports for every workload.
// A round is the workload's unit of work: one pass over its experiments
// (replay, mmu, build) or 2^20 requests of one client (service). A
// request is one engine cell or one service call.
var EndToEnd = []Spec{
	{"setup_s", "s", "lower"},
	{"rss_p90_mb", "MB", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p90_us", "us", "lower"},
}

// churnProfiles pairs each churn profile with the workload the churn
// experiment runs it over.
var churnProfiles = [][2]string{{"slab", "gcc"}, {"gc", "ML"}, {"fork", "gcc"}}

// PerLayer are the metrics a traced run reports, each named after the
// module it measures.
func PerLayer() []Spec {
	var out []Spec
	add := func(name, unit, better string) { out = append(out, Spec{name, unit, better}) }
	for _, w := range Workloads {
		for _, exp := range w.Experiments {
			add("engine."+exp+".wall_s", "s", "lower")
		}
	}
	add("engine.cell_max_s", "s", "lower")
	add("engine.busy_frac", "frac", "higher")
	add("trace.fill_ns_per_ref", "ns", "lower")
	for _, f := range []string{"fig11a", "fig11d"} {
		add("tlb."+f+".access_ns", "ns", "lower")
		add("tlb."+f+".miss_ratio", "ratio", "lower")
	}
	add("tlb.insert_ns", "ns", "lower")
	for _, org := range []string{"core", "hashed", "forward", "linear"} {
		for _, f := range []string{"fig11a", "fig11d"} {
			add(org+"."+f+".walk_ns", "ns", "lower")
			add(org+"."+f+".lines_per_miss", "lines", "lower")
		}
	}
	add("hashed.fig11d.probes_per_miss", "probes", "lower")
	for _, bv := range tracedBuildVariants() {
		add("sim.build."+bv.name+".ns_per_page", "ns", "lower")
		add("ptalloc."+bv.name+".bytes_per_page", "B", "lower")
	}
	add("sim.replay_build_share", "frac", "lower")
	add("mmu.access_ns", "ns", "lower")
	add("mmu.l2_hit_ratio", "ratio", "higher")
	add("walkcache.hit_ratio", "ratio", "higher")
	add("mmu.filter_walk_ns", "ns", "lower")
	for _, c := range churnProfiles {
		add("sim.churn."+c[0]+".s", "s", "lower")
	}
	for _, r := range sim.ReplicationFactors() {
		add(fmt.Sprintf("sim.replication.r%d.s", r), "s", "lower")
	}
	add("service.hit_ratio", "ratio", "higher")
	add("service.fills_per_op", "ratio", "lower")
	add("service.map_conflict_ratio", "ratio", "lower")
	add("service.lookup_p50_ns", "ns", "lower")
	add("service.lookup_p99_ns", "ns", "lower")
	add("service.write_p50_ns", "ns", "lower")
	add("service.write_p99_ns", "ns", "lower")
	add("report.render_ms", "ms", "lower")
	for _, w := range Workloads {
		add("go."+w.Name+".alloc_mb", "MB", "lower")
		add("go."+w.Name+".gc_cycles", "count", "lower")
		add("go."+w.Name+".gc_pause_ms", "ms", "lower")
	}
	add("bench.trace_overhead_s", "s", "lower")
	return out
}

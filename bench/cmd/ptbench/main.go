// Command ptbench is the repository's benchmark: it runs the replay,
// mmu, build and service workloads, each in its own child process,
// checks their outputs, and prints every metric as
// "workload metric value unit" followed by one JSON result line.
//
// Usage:
//
//	ptbench [-workload W] [-seed S] [-seconds N] [-refs N] [-trace 0|1] [-trace-out spans.json]
//	        [-json out.json] [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// See bench/README.md for the workloads and metrics.
package main

import (
	"os"

	"clusterpt/bench"
)

func main() {
	os.Exit(bench.Main(os.Args[1:], os.Stdout, os.Stderr))
}

package engine

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// WithProfiles runs fn under the stdlib profilers: a CPU profile
// written to cpuPath while fn runs, and a heap profile written to
// memPath after it returns. An empty path skips that profile. Every
// cell the engine runs carries "experiment" and "cell" profiler labels
// (the lanes a FanSharded cell starts inherit them), so one CPU profile
// splits by cell:
//
//	go tool pprof -tagfocus cell=hierarchy/coral cpu.out
//
// Profiling only observes: fn's output is the same with or without it.
func WithProfiles(cpuPath, memPath string, fn func() error) (err error) {
	if cpuPath != "" {
		f, cerr := os.Create(cpuPath)
		if cerr != nil {
			return fmt.Errorf("cpuprofile: %w", cerr)
		}
		if cerr := pprof.StartCPUProfile(f); cerr != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", cerr)
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); cerr != nil {
				err = errors.Join(err, fmt.Errorf("cpuprofile: %w", cerr))
			}
		}()
	}
	err = fn()
	if memPath != "" {
		if merr := writeHeapProfile(memPath); merr != nil {
			err = errors.Join(err, fmt.Errorf("memprofile: %w", merr))
		}
	}
	return err
}

// writeHeapProfile writes an up-to-date heap profile to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // materialize the allocations of the run just finished
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

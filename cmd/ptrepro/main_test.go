package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunAllExperiments executes every experiment end to end with short
// traces — the CLI's smoke test.
func TestRunAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full CLI run in long mode only")
	}
	*refsFlag = 20_000
	for _, exp := range []string{
		"table1", "fig9", "fig10", "fig11a", "fig11b", "fig11c", "fig11d",
		"table2", "lines", "sweeps", "residency", "swtlb", "multiprog", "verify",
		"concurrent-lookup", "concurrent-mixed",
	} {
		var buf bytes.Buffer
		if err := run(context.Background(), &buf, exp); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s: no output", exp)
		}
	}
}

// TestReplicationGridIdentity holds the replication experiment to its
// acceptance contract: rendered bytes are identical at every
// (-workers, -shards, -replicas) combination.
func TestReplicationGridIdentity(t *testing.T) {
	*refsFlag = 4_000
	*seedFlag = 1
	*csvFlag = false
	grid := []struct{ workers, shards, replicas int }{
		{1, 1, 0}, {8, 1, 0}, {3, 8, 0}, {4, 4, 1}, {2, 6, 2}, {8, 8, 16},
	}
	var want []byte
	for _, g := range grid {
		*workersFlag, *shardsFlag, *replicasFlag = g.workers, g.shards, g.replicas
		var buf bytes.Buffer
		if err := run(context.Background(), &buf, "replication"); err != nil {
			t.Fatalf("(%d,%d,%d): %v", g.workers, g.shards, g.replicas, err)
		}
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("output at (-workers=%d -shards=%d -replicas=%d) diverged from (-workers=1 -shards=1 -replicas=0)",
				g.workers, g.shards, g.replicas)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), &buf, "nope")
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// The error must teach the valid names (derived from the registry).
	for _, want := range []string{"table1", "fig11d", "verify", "valid"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestCheckFlags: a negative -refs, -workers, -shards or -replicas and
// an unknown -mmu are flag errors, caught before any experiment runs.
func TestCheckFlags(t *testing.T) {
	workers, shards, replicas := *workersFlag, *shardsFlag, *replicasFlag
	defer func() {
		*refsFlag, *mmuFlag = 400_000, "flat"
		*workersFlag, *shardsFlag, *replicasFlag = workers, shards, replicas
	}()
	for _, tc := range []struct {
		refs, workers, shards, replicas int
		mmu                             string
		ok                              bool
	}{
		{400_000, 1, 1, 0, "flat", true},
		{0, 0, 0, 0, "l2+pwc", true},
		{-5, 1, 1, 0, "flat", false},
		{400_000, 1, 1, 0, "l3", false},
		{400_000, -3, 1, 0, "flat", false},
		{400_000, 1, -3, 0, "flat", false},
		{400_000, 1, 1, -3, "flat", false},
	} {
		*refsFlag, *mmuFlag = tc.refs, tc.mmu
		*workersFlag, *shardsFlag, *replicasFlag = tc.workers, tc.shards, tc.replicas
		if err := checkFlags(); (err == nil) != tc.ok {
			t.Errorf("-refs %d -workers %d -shards %d -replicas %d -mmu %s: err = %v, want ok=%v",
				tc.refs, tc.workers, tc.shards, tc.replicas, tc.mmu, err, tc.ok)
		}
	}
}

func TestList(t *testing.T) {
	var buf bytes.Buffer
	list(&buf)
	out := buf.String()
	for _, want := range []string{"table1", "fig9", "sweeps", "verify"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q", want)
		}
	}
}

// TestCPUProfileFlag: -cpuprofile and -memprofile write non-empty
// profiles, and profiling never changes a rendered byte.
func TestCPUProfileFlag(t *testing.T) {
	*refsFlag = 20_000
	*seedFlag = 1
	*csvFlag = false
	*workersFlag, *shardsFlag = 2, 2
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	defer func() { *cpuProfile, *memProfile = "", "" }()

	var plain, profiled bytes.Buffer
	if err := runProfiled(context.Background(), &plain, "hierarchy"); err != nil {
		t.Fatal(err)
	}
	*cpuProfile, *memProfile = cpu, mem
	if err := runProfiled(context.Background(), &profiled, "hierarchy"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), profiled.Bytes()) {
		t.Fatalf("profiling changed the output:\n--- profiled ---\n%s\n--- plain ---\n%s",
			firstDiffWindow(profiled.Bytes(), plain.Bytes()), firstDiffWindow(plain.Bytes(), profiled.Bytes()))
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}

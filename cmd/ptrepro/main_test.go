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

// TestReplicationGridIdentity holds the replication experiment, whose
// 64 point cells are the engine's largest fan-out, to its acceptance
// contract: rendered bytes are identical at every -workers.
func TestReplicationGridIdentity(t *testing.T) {
	*refsFlag = 4_000
	*seedFlag = 1
	*csvFlag = false
	var want []byte
	for _, workers := range []int{1, 2, 3, 8, 64} {
		*workersFlag = workers
		var buf bytes.Buffer
		if err := run(context.Background(), &buf, "replication"); err != nil {
			t.Fatalf("-workers %d: %v", workers, err)
		}
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("output at -workers %d diverged from -workers 1", workers)
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

// TestCheckFlags: a -refs below one, a zero -seed, a negative -workers
// and an unknown -mmu are flag errors, caught before any experiment
// runs; -workers 0 means GOMAXPROCS.
func TestCheckFlags(t *testing.T) {
	workers := *workersFlag
	defer func() {
		*refsFlag, *seedFlag, *mmuFlag = 400_000, 1, "flat"
		*workersFlag = workers
	}()
	for _, tc := range []struct {
		refs    int
		seed    uint64
		workers int
		mmu     string
		ok      bool
	}{
		{400_000, 1, 1, "flat", true},
		{1, 2, 0, "l2+pwc", true},
		{0, 1, 1, "flat", false},
		{-5, 1, 1, "flat", false},
		{400_000, 0, 1, "flat", false},
		{400_000, 1, 1, "l3", false},
		{400_000, 1, -3, "flat", false},
	} {
		*refsFlag, *seedFlag, *workersFlag, *mmuFlag = tc.refs, tc.seed, tc.workers, tc.mmu
		if err := checkFlags(); (err == nil) != tc.ok {
			t.Errorf("-refs %d -seed %d -workers %d -mmu %s: err = %v, want ok=%v",
				tc.refs, tc.seed, tc.workers, tc.mmu, err, tc.ok)
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
	*workersFlag = 2
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

package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// testRefs keeps the engine tests quick; cmd/ptrepro runs full traces.
const testRefs = 20_000

func renderAll(t *testing.T, results []ExperimentResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range results {
		for _, tab := range r.Tables {
			tab.Render(&buf)
		}
		for _, n := range r.Notes {
			fmt.Fprintf(&buf, "%s\n\n", n)
		}
	}
	return buf.Bytes()
}

func TestRegistryOrderAndNames(t *testing.T) {
	want := []string{
		"table1", "fig9", "fig10", "fig11a", "fig11b", "fig11c", "fig11d",
		"table2", "lines", "sweeps", "residency", "swtlb", "multiprog",
		"partition", "churn", "hierarchy", "replication", "verify",
		"concurrent-lookup", "concurrent-mixed",
	}
	got := Default().Names()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("registry[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestRegistryDepsPrecede(t *testing.T) {
	pos := map[string]int{}
	for i, n := range Default().Names() {
		pos[n] = i
	}
	for _, n := range Default().Names() {
		e, err := Default().Get(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range e.Deps {
			if pos[d] >= pos[n] {
				t.Errorf("%s depends on %s but is registered before it", n, d)
			}
		}
	}
}

func TestUnknownExperimentListsValidNames(t *testing.T) {
	eng := New(Options{Refs: testRefs, Log: io.Discard})
	_, err := eng.Run(context.Background(), "figg9")
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	msg := err.Error()
	for _, want := range []string{`"figg9"`, "valid", "all", "fig9", "verify"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

func TestRegisterRejectsBadExperiments(t *testing.T) {
	r := NewRegistry()
	ok := Experiment{Name: "a", Run: func(context.Context, *RunContext) (*Result, error) { return &Result{}, nil }}
	if err := r.Register(ok); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Experiment{
		{Name: "", Run: ok.Run},    // no name
		{Name: "b"},                // no runner
		{Name: "all", Run: ok.Run}, // reserved
		{Name: "a", Run: ok.Run},   // duplicate
		{Name: "c", Run: ok.Run, Deps: []string{"missing"}}, // unknown dep
	} {
		if err := r.Register(bad); err == nil {
			t.Errorf("Register(%q deps=%v) accepted", bad.Name, bad.Deps)
		}
	}
}

// TestDeterministicAcrossWorkers is the engine's core guarantee: running
// `-exp all` at -workers 1 and -workers 8 renders byte-identical tables
// for the same seed and refs. Under -race this also exercises the worker
// pool for data races.
func TestDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full determinism sweep in long mode only")
	}
	run := func(workers int) []byte {
		eng := New(Options{Refs: testRefs, Seed: 3, Workers: workers, Log: io.Discard})
		results, err := eng.Run(context.Background(), "all")
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(results) != len(Default().Names()) {
			t.Fatalf("workers=%d: %d results", workers, len(results))
		}
		// Timing experiments report wall-clock throughput; their bytes
		// may not be identical across runs, so compare everything else.
		det := results[:0:0]
		for _, r := range results {
			if e, err := Default().Get(r.Name); err == nil && e.Timing {
				continue
			}
			det = append(det, r)
		}
		return renderAll(t, det)
	}
	serial := run(1)
	parallel := run(8)
	if !bytes.Equal(serial, parallel) {
		d := firstDiff(serial, parallel)
		t.Fatalf("output diverges at byte %d:\nserial:   %q\nparallel: %q",
			d, clip(serial, d), clip(parallel, d))
	}
	if len(serial) == 0 {
		t.Fatal("no output rendered")
	}
}

// TestDeterministicAcrossWorkerCounts is TestDeterministicAcrossWorkers
// in short mode: a Figure 11 graph (fig11a), the partition what-if, the
// churn time series (one cell per pair and organization), the
// replication sweep (one cell per point) and the multi-level hierarchy
// replay render byte-identical tables at -workers 1, 3 and 8.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []byte {
		var out []byte
		for _, exp := range []string{"fig11a", "partition", "churn", "replication", "hierarchy"} {
			eng := New(Options{Refs: 10_000, Seed: 3, Workers: workers, Log: io.Discard})
			results, err := eng.Run(context.Background(), exp)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, exp, err)
			}
			out = append(out, renderAll(t, results)...)
		}
		return out
	}
	base := run(1)
	if len(base) == 0 {
		t.Fatal("no output rendered")
	}
	for _, workers := range []int{3, 8} {
		got := run(workers)
		if !bytes.Equal(base, got) {
			d := firstDiff(base, got)
			t.Fatalf("workers=%d diverges at byte %d:\nbase: %q\ngot:  %q",
				workers, d, clip(base, d), clip(got, d))
		}
	}
}

// TestFanPoolDeterministic pins the cell-level property on one cheap
// experiment so short mode still races the pool.
func TestFanPoolDeterministic(t *testing.T) {
	run := func(workers int) []byte {
		eng := New(Options{Refs: 10_000, Seed: 9, Workers: workers, Log: io.Discard})
		results, err := eng.Run(context.Background(), "multiprog")
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return renderAll(t, results)
	}
	if a, b := run(1), run(8); !bytes.Equal(a, b) {
		t.Fatalf("multiprog diverges between worker counts:\n%s\nvs\n%s", a, b)
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func clip(b []byte, at int) []byte {
	lo, hi := at-40, at+40
	if lo < 0 {
		lo = 0
	}
	if hi > len(b) {
		hi = len(b)
	}
	return b[lo:hi]
}

func TestFanMergesInInputOrder(t *testing.T) {
	eng := New(Options{Refs: testRefs, Workers: 8, Log: io.Discard})
	rc := &RunContext{eng: eng, exp: "test", Refs: testRefs, Seed: 1}
	var cells []Cell[int]
	for i := 0; i < 64; i++ {
		cells = append(cells, Cell[int]{
			Key: fmt.Sprintf("cell-%d", i),
			Run: func(ctx context.Context, seed uint64) (int, error) {
				// Sleep inversely to index so late cells finish first.
				time.Sleep(time.Duration(64-i) * 10 * time.Microsecond)
				return i, nil
			},
		})
	}
	got, err := Fan(context.Background(), rc, cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("results[%d] = %d: merge not index-ordered", i, v)
		}
	}
}

func TestFanRejectsDuplicateKeys(t *testing.T) {
	eng := New(Options{Log: io.Discard})
	rc := &RunContext{eng: eng, exp: "test", Seed: 1}
	cells := []Cell[int]{
		{Key: "same", Run: func(context.Context, uint64) (int, error) { return 0, nil }},
		{Key: "same", Run: func(context.Context, uint64) (int, error) { return 1, nil }},
	}
	if _, err := Fan(context.Background(), rc, cells); err == nil {
		t.Fatal("duplicate cell keys accepted — cells would share a seed stream")
	}
}

func TestFanCancelsOnFirstError(t *testing.T) {
	eng := New(Options{Workers: 2, Log: io.Discard})
	rc := &RunContext{eng: eng, exp: "test", Seed: 1}
	boom := errors.New("boom")
	var ran int32
	var mu sync.Mutex
	cells := []Cell[int]{
		{Key: "fail", Run: func(context.Context, uint64) (int, error) { return 0, boom }},
	}
	for i := 0; i < 32; i++ {
		cells = append(cells, Cell[int]{
			Key: fmt.Sprintf("later-%d", i),
			Run: func(ctx context.Context, seed uint64) (int, error) {
				mu.Lock()
				ran++
				mu.Unlock()
				return 0, nil
			},
		})
	}
	_, err := Fan(context.Background(), rc, cells)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if ran == 32 {
		t.Log("note: every cell ran before cancellation propagated (tiny cells)")
	}
}

func TestRunHonorsContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := New(Options{Refs: testRefs, Log: io.Discard})
	_, err := eng.Run(ctx, "all")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestStatsAndHooks(t *testing.T) {
	var mu sync.Mutex
	started, done := map[string]int{}, map[string]int{}
	eng := New(Options{
		Refs: 10_000, Workers: 4, Log: io.Discard,
		Hooks: Hooks{
			CellStart: func(exp, cell string) {
				mu.Lock()
				started[exp]++
				mu.Unlock()
			},
			CellDone: func(exp, cell string, wall time.Duration) {
				mu.Lock()
				done[exp]++
				mu.Unlock()
			},
		},
	})
	results, err := eng.Run(context.Background(), "table1")
	if err != nil {
		t.Fatal(err)
	}
	st := results[0].Stats
	if st.Cells != 11 || st.CellsDone != 11 { // ten workloads + kernel
		t.Errorf("stats cells = %d/%d, want 11/11", st.CellsDone, st.Cells)
	}
	if st.Refs == 0 {
		t.Error("stats counted no refs")
	}
	if st.Wall <= 0 {
		t.Error("no wall time recorded")
	}
	mu.Lock()
	defer mu.Unlock()
	if started["table1"] != 11 || done["table1"] != 11 {
		t.Errorf("hooks saw %d starts / %d dones, want 11/11", started["table1"], done["table1"])
	}
}

func TestVerboseLogging(t *testing.T) {
	var log bytes.Buffer
	eng := New(Options{Refs: 10_000, Verbose: true, Log: &log})
	if _, err := eng.Run(context.Background(), "lines"); err != nil {
		t.Fatal(err)
	}
	out := log.String()
	if !strings.Contains(out, "engine: lines: starting") || !strings.Contains(out, "cells") {
		t.Errorf("verbose log missing progress lines: %q", out)
	}
}

package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden output file")

// TestGoldenOutput pins the rendered output of the deterministic
// experiments at the default seed. The engine promises byte-identical
// output at any worker count for fixed -seed/-refs; this test holds it to
// that across releases, so an accidental formatting change, a reordered
// cell merge, or a drifting simulation result shows up as a diff instead
// of silently rewriting the paper's numbers. Wall-clock experiments
// (concurrent-*) are excluded by construction: their throughput columns
// change run to run.
//
// Regenerate after an intentional change with:
//
//	go test ./cmd/ptrepro -run TestGoldenOutput -update
func TestGoldenOutput(t *testing.T) {
	*refsFlag = 20_000
	*seedFlag = 1
	*csvFlag = false

	var buf bytes.Buffer
	for i, exp := range []string{"table1", "fig9", "fig10", "table2", "lines", "churn", "hierarchy", "replication"} {
		// Vary the worker count as we go: the golden file is also a
		// determinism check, so cell scheduling may not leak into the
		// bytes.
		*workersFlag = 1 + i%4
		if err := run(context.Background(), &buf, exp); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}

	checkGolden(t, filepath.Join("testdata", "golden.txt"), buf.Bytes())
}

// checkGolden compares got with the golden file, or rewrites the file
// under -update.
func checkGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output diverged from %s (rerun with -update if intentional)\n--- got ---\n%s\n--- want ---\n%s",
			golden, firstDiffWindow(got, want), firstDiffWindow(want, got))
	}
}

// firstDiffWindow returns a short window of a around its first divergence
// from b, so failures show the offending lines rather than two full dumps.
func firstDiffWindow(a, b []byte) []byte {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	start := i
	for start > 0 && i-start < 200 && a[start-1] != '\n' {
		start--
	}
	end := i + 200
	if end > len(a) {
		end = len(a)
	}
	return a[start:end]
}

// TestGoldenOutputMMU pins Figure 11a–d under the multi-level
// translation pipelines (-mmu l2 and l2+pwc), which TestGoldenOutput
// covers only through the hierarchy experiment's Figure 11a tables.
// The pipeline identity test compares fused with separate replays, so
// it cannot notice both drifting together; this file can. The worker
// count varies from run to run as in TestGoldenOutput.
//
// Regenerate after an intentional change with:
//
//	go test ./cmd/ptrepro -run TestGoldenOutputMMU -update
func TestGoldenOutputMMU(t *testing.T) {
	*refsFlag = 20_000
	*seedFlag = 1
	*csvFlag = false
	defer func() { *mmuFlag = "flat" }()

	var buf bytes.Buffer
	i := 0
	for _, mode := range []string{"l2", "l2+pwc"} {
		*mmuFlag = mode
		for _, exp := range []string{"fig11a", "fig11b", "fig11c", "fig11d"} {
			*workersFlag = 1 + i%4
			i++
			fmt.Fprintf(&buf, "== -mmu %s -exp %s\n", mode, exp)
			if err := run(context.Background(), &buf, exp); err != nil {
				t.Fatalf("%s/%s: %v", mode, exp, err)
			}
		}
	}
	checkGolden(t, filepath.Join("testdata", "golden_mmu.txt"), buf.Bytes())
}

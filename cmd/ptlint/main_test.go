package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden JSON file")

// chdir moves the process into dir for one test. ptlint always analyzes
// the module containing the working directory, so the tests drive it the
// way CI does: from inside the target module.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
}

// TestGoldenJSON pins the -json schema over the demo fixture module:
// one finding per analyzer, plus suppressed sites that must stay out of
// the output. Downstream tooling consumes this schema (DESIGN.md §7);
// regenerate after an intentional change with:
//
//	go test ./cmd/ptlint -run TestGoldenJSON -update
func TestGoldenJSON(t *testing.T) {
	fixture, err := filepath.Abs(filepath.Join("testdata", "src", "demo"))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := filepath.Abs(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	chdir(t, fixture)

	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (findings present); stderr: %s", code, stderr.String())
	}

	if *updateGolden {
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, stdout.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("JSON output diverged from golden (rerun with -update if intentional)\n--- got ---\n%s\n--- want ---\n%s",
			stdout.String(), want)
	}

	// Schema sanity independent of the exact bytes: version, count, and
	// every check represented.
	var rep struct {
		Version     int `json:"version"`
		Count       int `json:"count"`
		Diagnostics []struct {
			Check   string `json:"check"`
			File    string `json:"file"`
			Line    int    `json:"line"`
			Column  int    `json:"column"`
			Message string `json:"message"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if rep.Version != 2 {
		t.Errorf("schema version = %d, want 2", rep.Version)
	}
	if rep.Count != len(rep.Diagnostics) {
		t.Errorf("count = %d but %d diagnostics", rep.Count, len(rep.Diagnostics))
	}
	seen := map[string]bool{}
	for _, d := range rep.Diagnostics {
		seen[d.Check] = true
		if d.File == "" || d.Line == 0 || d.Column == 0 || d.Message == "" {
			t.Errorf("diagnostic with missing field: %+v", d)
		}
		if filepath.IsAbs(d.File) || strings.Contains(d.File, "\\") {
			t.Errorf("file %q must be module-root-relative and slash-separated", d.File)
		}
	}
	for _, check := range []string{
		"atomiccounters", "locksafety", "errdrop",
		"guardedby", "handlelife", "detflow",
	} {
		if !seen[check] {
			t.Errorf("golden fixture produced no %s finding", check)
		}
	}
}

// TestCleanModuleExitsZero runs ptlint over this repository itself: the
// acceptance bar is that the real module is clean (violations are fixed
// or carry //ptlint:allow justifications).
func TestCleanModuleExitsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	chdir(t, root)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("ptlint is not clean on its own repository (exit %d):\n%s%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run produced output: %s", stdout.String())
	}
}

func TestListChecks(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit code = %d", code)
	}
	for _, check := range []string{
		"atomiccounters", "locksafety", "errdrop",
		"guardedby", "handlelife", "detflow",
	} {
		if !strings.Contains(stdout.String(), check) {
			t.Errorf("-list output missing %s:\n%s", check, stdout.String())
		}
	}
	if n := strings.Count(stdout.String(), "\n"); n != 8 {
		t.Errorf("-list printed %d checks, want 8:\n%s", n, stdout.String())
	}
}

func TestUnknownCheckRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-checks", "nonesuch"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown check exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "nonesuch") {
		t.Errorf("stderr does not name the unknown check: %s", stderr.String())
	}
}

// TestChecksFilter pins that -checks restricts the run: only errdrop
// and detflow findings appear when only those two are selected, and
// both do.
func TestChecksFilter(t *testing.T) {
	fixture, err := filepath.Abs(filepath.Join("testdata", "src", "demo"))
	if err != nil {
		t.Fatal(err)
	}
	chdir(t, fixture)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-checks", "errdrop,detflow", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, stderr.String())
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		switch {
		case strings.Contains(line, "[errdrop]"):
			seen["errdrop"] = true
		case strings.Contains(line, "[detflow]"):
			seen["detflow"] = true
		default:
			t.Errorf("finding outside -checks=errdrop,detflow leaked through: %s", line)
		}
	}
	if !seen["errdrop"] || !seen["detflow"] {
		t.Errorf("-checks=errdrop,detflow did not report both checks:\n%s", stdout.String())
	}
}

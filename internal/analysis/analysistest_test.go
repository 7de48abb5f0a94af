package analysis_test

// analysistest-style golden harness: each analyzer has a small fixture
// module under testdata/src/<name> whose source marks every expected
// finding with a trailing comment
//
//	// want:<check> <message substring>
//
// The harness loads the fixture with the production loader, runs the
// analyzer under test with a fixture-specific Config, and requires an
// exact match: every marker must be hit by exactly one diagnostic on
// its line, and no diagnostic may land on an unmarked line. Fixtures
// also contain deliberately-suppressed violations (//ptlint:allow ...)
// with no want marker, so a suppression regression shows up as an
// unexpected diagnostic.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"clusterpt/internal/analysis"
)

var wantRe = regexp.MustCompile(`// want:([a-z]+) (.+)$`)

type expectation struct {
	file  string // module-root-relative, slash-separated
	line  int
	check string
	sub   string
}

// loadFixture loads testdata/src/<name> as its own module.
func loadFixture(t *testing.T, name string) *analysis.Module {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := analysis.LoadModule(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if mod.RootDir != dir {
		t.Fatalf("fixture %s resolved to module root %s, want %s", name, mod.RootDir, dir)
	}
	return mod
}

// scanWants extracts the expectations from every .go file of the
// fixture module.
func scanWants(t *testing.T, root string) []expectation {
	t.Helper()
	var wants []expectation
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if m := wantRe.FindStringSubmatch(sc.Text()); m != nil {
				wants = append(wants, expectation{
					file:  filepath.ToSlash(rel),
					line:  line,
					check: m[1],
					sub:   strings.TrimSpace(m[2]),
				})
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

// runFixture executes one analyzer over a fixture and matches the
// diagnostics against the fixture's want markers.
func runFixture(t *testing.T, fixture string, a *analysis.Analyzer, cfg analysis.Config) {
	t.Helper()
	runFixtureFile(t, fixture, "", a, cfg)
}

// runFixtureFile is runFixture narrowed to one module-root-relative
// file: only that file's want markers and diagnostics are matched. An
// empty file matches the whole fixture.
func runFixtureFile(t *testing.T, fixture, file string, a *analysis.Analyzer, cfg analysis.Config) {
	t.Helper()
	mod := loadFixture(t, fixture)
	diags := analysis.Run(mod, []*analysis.Analyzer{a}, cfg)
	wants := scanWants(t, mod.RootDir)
	if file != "" {
		diags = slices.DeleteFunc(diags, func(d analysis.Diagnostic) bool { return d.Pos.Filename != file })
		wants = slices.DeleteFunc(wants, func(w expectation) bool { return w.file != file })
	}

	if len(wants) == 0 {
		t.Fatalf("fixture %s %s has no want markers; a golden test that expects nothing tests nothing", fixture, file)
	}

	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if matched[i] || d.Pos.Filename != w.file || d.Pos.Line != w.line || d.Check != w.check {
				continue
			}
			if !strings.Contains(d.Message, w.sub) {
				t.Errorf("%s:%d: diagnostic %q does not contain %q", w.file, w.line, d.Message, w.sub)
			}
			matched[i] = true
			found = true
			break
		}
		if !found {
			t.Errorf("%s:%d: expected %s finding containing %q, got none", w.file, w.line, w.check, w.sub)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

// fixtureConfig builds a Config pointing the project-specific anchors
// at a fixture module's own types.
func fixtureConfig(mod string) analysis.Config {
	return analysis.Config{
		CountersType: mod + "/pt.Counters",
		ErrInterface: mod + "/pt.PageTable",
		ErrPkgs:      []string{mod + "/svc"},
		NodeTypes:    []string{mod + "/tab.Node", mod + "/tab.Entry"},
		AllocPkg:     mod + "/alloc",
		HotPkgs:      []string{mod, mod + "/hot"},
		HandleTypes:  []string{mod + "/alloc.Handle"},
		RecycleFuncs: []string{mod + "/pt.Resetter.Reset", mod + "/pool.Pool.Release"},
		SinkFuncs:    []string{mod + "/rep.Table.Row", mod + "/rep.Table.Render", mod + "/eng.Fan"},
	}
}

func ExampleWriteJSON() {
	// The JSON schema is exercised end to end by cmd/ptlint's golden
	// test; this example pins the empty-report shape.
	if err := analysis.WriteJSON(os.Stdout, []string{"guardedby"}, nil); err != nil {
		fmt.Println(err)
	}
	// Output:
	// {
	//   "version": 2,
	//   "checks": [
	//     "guardedby"
	//   ],
	//   "count": 0,
	//   "diagnostics": []
	// }
}

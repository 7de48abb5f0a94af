package analysis_test

import (
	"strings"
	"testing"

	"clusterpt/internal/analysis"
)

func TestAtomicCounters(t *testing.T) {
	runFixture(t, "ctr", analysis.AtomicCounters, fixtureConfig("ctr"))
}

func TestLockSafety(t *testing.T) {
	runFixture(t, "locks", analysis.LockSafety, fixtureConfig("locks"))
}

func TestErrDrop(t *testing.T) {
	runFixture(t, "errpt", analysis.ErrDrop, fixtureConfig("errpt"))
}

func TestArenaAlloc(t *testing.T) {
	runFixture(t, "arena", analysis.ArenaAlloc, fixtureConfig("arena"))
}

func TestHotPathAlloc(t *testing.T) {
	runFixture(t, "hot", analysis.HotPathAlloc, fixtureConfig("hot"))
}

func TestGuardedBy(t *testing.T) {
	runFixture(t, "guard", analysis.GuardedBy, fixtureConfig("guard"))
}

func TestHandleLife(t *testing.T) {
	runFixture(t, "life", analysis.HandleLife, fixtureConfig("life"))
}

func TestDetFlow(t *testing.T) {
	runFixture(t, "flow", analysis.DetFlow, fixtureConfig("flow"))
}

// TestNoDeterminism pins the source-site and map-order cases (wall
// clock, global RNG, map-ordered output, float accumulation, transformed
// appends) and their exemptions, all owned by detflow in use/det.go.
func TestNoDeterminism(t *testing.T) {
	runFixtureFile(t, "flow", "use/det.go", analysis.DetFlow, fixtureConfig("flow"))
}

// TestShardMerge pins the order-dependent merge cases inside chan and
// map ranges and their exemptions, all owned by detflow in use/merge.go.
func TestShardMerge(t *testing.T) {
	runFixtureFile(t, "flow", "use/merge.go", analysis.DetFlow, fixtureConfig("flow"))
}

// TestSuppressionRequiresMatchingCheck pins that //ptlint:allow only
// silences the named check: the errpt fixture's errdrop allows must not
// leak across analyzers, and its errdrop wants must survive a full-suite
// run.
func TestSuppressionRequiresMatchingCheck(t *testing.T) {
	mod := loadFixture(t, "errpt")
	cfg := fixtureConfig("errpt")
	// Run the full suite: the errdrop allows in the fixture must not
	// suppress any locksafety/atomiccounters/detflow findings
	// (there are none to find), and the errdrop wants must survive.
	diags := analysis.Run(mod, analysis.Analyzers(), cfg)
	var errdrops int
	for _, d := range diags {
		if d.Check != "errdrop" {
			t.Errorf("unexpected non-errdrop diagnostic in errpt fixture: %s", d)
		} else {
			errdrops++
		}
	}
	wants := scanWants(t, mod.RootDir)
	if errdrops != len(wants) {
		t.Errorf("full-suite run found %d errdrop diagnostics, want markers expect %d", errdrops, len(wants))
	}
}

// TestDiagnosticString pins the human-readable line format the CI log
// greps for.
func TestDiagnosticString(t *testing.T) {
	mod := loadFixture(t, "flow")
	diags := analysis.Run(mod, []*analysis.Analyzer{analysis.DetFlow}, fixtureConfig("flow"))
	if len(diags) == 0 {
		t.Fatal("no diagnostics")
	}
	s := diags[0].String()
	if !strings.HasPrefix(s, "use/") || !strings.Contains(s, ".go:") || !strings.Contains(s, "[detflow]") {
		t.Errorf("diagnostic line %q missing file anchor or [check] tag", s)
	}
}

// TestAnalyzersStable pins the suite's composition: CI and docs name
// these eight checks.
func TestAnalyzersStable(t *testing.T) {
	want := []string{"atomiccounters", "locksafety", "errdrop", "arenaalloc", "hotpathalloc", "guardedby", "handlelife", "detflow"}
	got := analysis.Analyzers()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc line", a.Name)
		}
	}
}

package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// childEnv makes the test binary act as ptbench's child process, so the
// smoke test drives the real parent/child path.
const childEnv = "PTBENCH_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(Main(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Setenv(childEnv, "1")
	os.Exit(m.Run())
}

// smokeArgs shrink every workload: 20k references, 200 ms of service
// load, one round per engine workload.
var smokeArgs = []string{"-seed", "1", "-seconds", "0.2", "-refs", "20000"}

// runMain runs ptbench and decodes the result from its last line.
func runMain(t *testing.T, args ...string) Result {
	t.Helper()
	var out bytes.Buffer
	if code := Main(args, &out, os.Stderr); code != 0 {
		t.Fatalf("ptbench %v exited %d; output:\n%s", args, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res Result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out.String())
	}
	return res
}

func names(specs []Spec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]Metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload, then the traced run, through child
// processes at a tiny budget: every check must pass and the emitted
// metrics must be exactly the declared ones.
func TestSmoke(t *testing.T) {
	res := runMain(t, smokeArgs...)
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("e2e run: correct=%v, %d of %d checks failed", res.Correct, res.Failed, res.Attempted)
	}
	var want []string
	for _, w := range Workloads {
		for _, s := range EndToEnd {
			want = append(want, w.Name+"."+s.Name)
		}
	}
	sort.Strings(want)
	if got := keys(res.Metrics); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("e2e metrics\n got %v\nwant %v", got, want)
	}
	for k, m := range res.Metrics {
		if m.Value <= 0 {
			t.Errorf("%s = %v, want a positive value", k, m.Value)
		}
	}

	spans := filepath.Join(t.TempDir(), "spans.json")
	res = runMain(t, append(smokeArgs, "-trace", "1", "-trace-out", spans)...)
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("traced run: %d of %d checks failed", res.Failed, res.Attempted)
	}
	if got, want := keys(res.Metrics), names(PerLayer()); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("per-layer metrics\n got %v\nwant %v", got, want)
	}
	data, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var sp struct{ Spans []Span }
	if err := json.Unmarshal(data, &sp); err != nil || len(sp.Spans) == 0 {
		t.Fatalf("spans.json: %v (%d spans)", err, len(sp.Spans))
	}
}

// TestTracedCountsMatch checks the traced Figure 11 decomposition
// against untraced sim.RunFigure11 rows: ref misses and lines per miss
// of all four organizations, flat and l2+pwc.
func TestTracedCountsMatch(t *testing.T) {
	r := Report{Metrics: map[string]float64{}}
	if err := tracedFigures(context.Background(), newRecorder(), Options{Seed: 2, Refs: 20000}, &r); err != nil {
		t.Fatal(err)
	}
	cells := len(tracedModes) * 2 * len(tracedWorkloads)
	if want := int64(cells * 5); r.Attempted != want || r.Failed != 0 {
		t.Fatalf("%d of %d count checks failed, want 0 of %d", r.Failed, r.Attempted, want)
	}
}

// TestSeedChangesInputs checks that the seed reaches the inputs: the
// service clients' op streams and the replay outputs both change.
func TestSeedChangesInputs(t *testing.T) {
	snap, err := serviceSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	a, b := serviceStreams(snap, 1, 2), serviceStreams(snap, 2, 2)
	for c := range a {
		same := true
		for i := 0; i < 64; i++ {
			same = same && a[c].Next() == b[c].Next()
		}
		if same {
			t.Errorf("client %d: seeds 1 and 2 produced the same op stream", c)
		}
	}

	w := Workload{Name: "fig11a", Experiments: []string{"fig11a"}}
	digest := func(seed uint64) string {
		rig, err := newEngineRig(w, seed, 20000, false)
		if err != nil {
			t.Fatal(err)
		}
		runs := expRuns{}
		rig.round(context.Background(), runs)
		er := runs["fig11a"][0]
		if er.err != nil {
			t.Fatal(er.err)
		}
		return er.digest
	}
	if digest(1) == digest(2) {
		t.Error("seeds 1 and 2 rendered identical fig11a output")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code's declarations
// in step, both directions.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []Spec `json:"end_to_end"`
		PerLayer  []Spec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(bj.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %+v, defined %s: %s", i, bj.Workloads[i], w.Name, w.Why)
		}
	}
	same := func(kind string, declared, defined []Spec) {
		t.Helper()
		byName := map[string]Spec{}
		for _, s := range defined {
			byName[s.Name] = s
		}
		for _, s := range declared {
			if d, ok := byName[s.Name]; !ok || d != s {
				t.Errorf("%s: declared %+v, defined %+v", kind, s, d)
			}
			delete(byName, s.Name)
		}
		for name := range byName {
			t.Errorf("%s: %s is emitted but not declared", kind, name)
		}
	}
	same("end_to_end", bj.EndToEnd, EndToEnd)
	same("per_layer", bj.PerLayer, PerLayer())
}

// TestHistQuantile checks the interpolated percentiles of the
// log-bucket histogram against a known distribution.
func TestHistQuantile(t *testing.T) {
	var h Hist
	for v := int64(1); v <= 100000; v++ {
		h.Record(v)
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		want := q * 100000
		if got := h.Quantile(q); got < want*0.97 || got > want*1.03 {
			t.Errorf("q%.2f = %.0f, want %.0f ±3%%", q, got, want)
		}
	}
}

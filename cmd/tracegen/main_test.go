package main

import (
	"bytes"
	"flag"
	"strings"
	"testing"

	"clusterpt/internal/trace"
)

// generate sets the flags named in args (name, value pairs) and returns
// what run prints. Every test sets both flags, so no value leaks from
// one test into the next.
func generate(t *testing.T, args ...string) (string, error) {
	t.Helper()
	for i := 0; i+1 < len(args); i += 2 {
		if err := flag.Set(args[i], args[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	err := run(&buf)
	return buf.String(), err
}

// TestListNamesEveryProfile: with no -w, the listing has one row per
// profile.
func TestListNamesEveryProfile(t *testing.T) {
	out, err := generate(t, "w", "", "trace", "0")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range trace.Profiles() {
		if !strings.Contains(out, "\n"+p.Name+" ") {
			t.Errorf("listing has no row for %s:\n%s", p.Name, out)
		}
	}
}

// TestDescribeEveryProcess: -w titles one region table per process of
// the workload, and -trace 0 emits no references.
func TestDescribeEveryProcess(t *testing.T) {
	out, err := generate(t, "w", "coral", "trace", "0")
	if err != nil {
		t.Fatal(err)
	}
	p, _ := trace.ProfileByName("coral")
	for _, s := range p.Snapshot() {
		if !strings.Contains(out, "coral / "+s.Name+" (share ") {
			t.Errorf("no table for process %s:\n%s", s.Name, out)
		}
	}
	if strings.Contains(out, "references:") {
		t.Errorf("-trace 0 emitted references:\n%s", out)
	}
}

// TestTracePrintsNPerProcess: -trace 3 prints exactly three references
// after each process's table, for a workload with several processes.
func TestTracePrintsNPerProcess(t *testing.T) {
	out, err := generate(t, "w", "gcc", "trace", "3")
	if err != nil {
		t.Fatal(err)
	}
	p, _ := trace.ProfileByName("gcc")
	blocks := strings.Split(out, "first 3 references:\n")
	if got, want := len(blocks)-1, len(p.Snapshot()); got != want {
		t.Fatalf("%d reference blocks for %d processes:\n%s", got, want, out)
	}
	for i, b := range blocks[1:] {
		refs, _, _ := strings.Cut(b, "\n\n")
		lines := strings.Split(refs, "\n")
		if len(lines) != 3 {
			t.Errorf("process %d: %d references, want 3:\n%s", i, len(lines), refs)
		}
		for _, l := range lines {
			if !strings.HasPrefix(l, "  0x") {
				t.Errorf("process %d: %q is not a reference", i, l)
			}
		}
	}
}

// TestRejectsBadInput: an unknown workload and a negative -trace are
// errors, and nothing is printed before them.
func TestRejectsBadInput(t *testing.T) {
	for _, tc := range []struct{ w, trace, want string }{
		{"nope", "0", `unknown workload "nope"`},
		{"coral", "-1", "-trace -1"},
	} {
		out, err := generate(t, "w", tc.w, "trace", tc.trace)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("-w %s -trace %s: err = %v, want %q", tc.w, tc.trace, err, tc.want)
		}
		if out != "" {
			t.Errorf("-w %s -trace %s: printed before failing:\n%s", tc.w, tc.trace, out)
		}
	}
}

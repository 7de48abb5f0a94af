package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// simulate sets the flags named in args (name, value pairs) and returns
// what run prints. Every test sets the same flag names, so no value
// leaks from one test into the next.
func simulate(t *testing.T, args ...string) (string, error) {
	t.Helper()
	for i := 0; i+1 < len(args); i += 2 {
		if err := flag.Set(args[i], args[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	err := runProfiled(context.Background(), &buf)
	return buf.String(), err
}

const cellHeader = `gcc/cc1: table=clustered PTE bytes=11808 nodes=82 mappings=1069
gcc/make: table=clustered PTE bytes=2880 nodes=20 mappings=139
gcc/sh: table=clustered PTE bytes=2304 nodes=16 mappings=102
gcc/script: table=clustered PTE bytes=2304 nodes=16 mappings=92

workload=gcc table=clustered tlb=single entries=64 line=256 workers=1
accesses=20000 misses=16047 miss-ratio=0.80235
`

// TestOutputPinned pins the report of one gcc cell, unreplicated and
// with misses served through two replicas, and holds it identical at
// one and two workers (only the echoed -workers value may differ).
func TestOutputPinned(t *testing.T) {
	for _, tc := range []struct{ replicas, want string }{
		{"0", cellHeader + "avg cache lines / miss = 1.007\n"},
		{"2", cellHeader + "avg cache lines / miss = 0.878\n" +
			"replicas=2 nodes=8 svc-cache-hits=8042 local-lines=2036 remote-lines=12048\n"},
	} {
		for _, workers := range []string{"1", "2"} {
			got, err := simulate(t, "w", "gcc", "table", "clustered", "tlb", "single",
				"refs", "20000", "replicas", tc.replicas, "workers", workers)
			if err != nil {
				t.Fatalf("-replicas %s -workers %s: %v", tc.replicas, workers, err)
			}
			got = strings.Replace(got, " workers="+workers+"\n", " workers=1\n", 1)
			if got != tc.want {
				t.Errorf("-replicas %s -workers %s:\n--- got ---\n%s--- want ---\n%s", tc.replicas, workers, got, tc.want)
			}
		}
	}
}

// TestReplicasRejectSubblock: complete-subblock prefetch bypasses the
// replicated read path, so the combination is an error, not a panic.
func TestReplicasRejectSubblock(t *testing.T) {
	_, err := simulate(t, "w", "gcc", "table", "clustered", "tlb", "subblock",
		"refs", "20000", "replicas", "2", "workers", "1")
	if err == nil || !strings.Contains(err.Error(), "subblock") {
		t.Fatalf("-replicas 2 -tlb subblock: err = %v, want a subblock rejection", err)
	}
}

// TestRejectsBadNumericFlags: an out-of-range -entries (below one or
// above tlb.MaxEntries), -line or -refs (below one), a zero -seed, a
// -buckets or -sbf the table constructors would reject or silently
// default, a negative -workers, or a -replicas outside [0,
// memcost.DefaultNodes], is an error reported before any cell runs,
// never a panic, an out-of-memory crash, a silent default, a NaN report
// or a wrapped-around total. So is an unknown -table, and a -tlb
// subblock run whose 16-page block prefetch cannot work: any -sbf but
// 16, or a table that cannot read a whole block.
func TestRejectsBadNumericFlags(t *testing.T) {
	t.Cleanup(func() {
		flag.Set("table", "clustered")
		flag.Set("tlb", "single")
		flag.Set("entries", "64")
		flag.Set("line", "256")
		flag.Set("refs", "400000")
		flag.Set("buckets", "4096")
		flag.Set("sbf", "16")
		flag.Set("workers", "1")
		flag.Set("replicas", "0")
		flag.Set("seed", "1")
	})
	for _, tc := range []struct{ name, value, tlb string }{
		{"entries", "-1", ""},
		{"entries", "0", ""},
		{"entries", "300000000", ""},
		{"entries", "3000000000", ""},
		{"line", "100", ""},
		{"line", "4", ""},
		{"line", "0", ""},
		{"refs", "-5", ""},
		{"refs", "0", ""},
		{"seed", "0", ""},
		{"buckets", "0", ""},
		{"buckets", "3", ""},
		{"buckets", "-4096", ""},
		{"buckets", "-9223372036854775808", ""},
		{"sbf", "0", ""},
		{"sbf", "1", ""},
		{"sbf", "3", ""},
		{"sbf", "128", ""},
		{"sbf", "-16", ""},
		{"workers", "-3", ""},
		{"replicas", "-3", ""},
		{"replicas", "9", ""},
		{"sbf", "2", "subblock"},
		{"sbf", "8", "subblock"},
		{"sbf", "32", "subblock"},
		{"table", "nonesuch", ""},
		{"table", "swtlb-clustered", "subblock"},
		{"table", "hashed-multi", "subblock"},
		{"table", "hashed-spindex", "subblock"},
	} {
		name := tc.name + "=" + tc.value
		if tc.tlb == "" {
			tc.tlb = "single"
		} else {
			name += ",tlb=" + tc.tlb
		}
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			out, err := simulate(t, "w", "gcc", "table", "clustered", "tlb", tc.tlb,
				"refs", "20000", "entries", "64", "line", "256", "buckets", "4096", "sbf", "16",
				"replicas", "0", "workers", "1", "seed", "1", tc.name, tc.value)
			if err == nil || !strings.Contains(err.Error(), "-"+tc.name) {
				t.Fatalf("err = %v, want a -%s error", err, tc.name)
			}
			if out != "" {
				t.Fatalf("printed a report before failing:\n%s", out)
			}
		})
	}
}

// TestFlagGrid runs every -tlb × -table × -sbf {8, 16} flag set on gcc:
// each must either fail flag validation (exit 2) or run every cell
// (exit 0). None may pass validation and then fail in a cell (exit 1).
func TestFlagGrid(t *testing.T) {
	t.Cleanup(func() {
		flag.Set("table", "clustered")
		flag.Set("tlb", "single")
		flag.Set("sbf", "16")
	})
	for _, tl := range []string{"single", "superpage", "psb", "subblock"} {
		for _, table := range []string{"clustered", "hashed", "hashed-multi", "hashed-spindex", "linear", "forward", "swtlb-clustered"} {
			for _, sbf := range []string{"8", "16"} {
				for _, kv := range [][2]string{{"tlb", tl}, {"table", table}, {"sbf", sbf}} {
					if err := flag.Set(kv[0], kv[1]); err != nil {
						t.Fatal(err)
					}
				}
				if checkFlags() != nil {
					continue
				}
				if _, err := simulate(t, "w", "gcc", "refs", "20000", "replicas", "0", "workers", "1"); err != nil {
					t.Errorf("-tlb %s -table %s -sbf %s passed validation, then failed: %v", tl, table, sbf, err)
				}
			}
		}
	}
}

// TestCPUProfileFlag: -cpuprofile writes a non-empty profile and leaves
// the report byte-identical.
func TestCPUProfileFlag(t *testing.T) {
	cpu := filepath.Join(t.TempDir(), "cpu.out")
	args := []string{"w", "gcc", "table", "clustered", "tlb", "single",
		"refs", "20000", "replicas", "0", "workers", "2"}
	plain, err := simulate(t, append(args, "cpuprofile", "")...)
	if err != nil {
		t.Fatal(err)
	}
	defer flag.Set("cpuprofile", "")
	profiled, err := simulate(t, append(args, "cpuprofile", cpu)...)
	if err != nil {
		t.Fatal(err)
	}
	if profiled != plain {
		t.Fatalf("profiling changed the report:\n--- profiled ---\n%s--- plain ---\n%s", profiled, plain)
	}
	if fi, err := os.Stat(cpu); err != nil || fi.Size() == 0 {
		t.Fatalf("cpu profile missing or empty: %v", err)
	}
}

package tlb

// FuzzTLBIndex feeds arbitrary operation streams through an indexed
// TLB and its reference model twin (see diff_test.go) and fails
// on any observable divergence. The input encodes a configuration byte
// followed by 5-byte operations (diffPair.applyOp decodes them:
// access, insert, translate, flush, block prefetch, and invalidate — the
// one op that deletes an arbitrary key from the index rather than an LRU
// victim's), so the fuzzer can mutate kind, entry count, block geometry,
// and the op stream together.

import (
	"encoding/binary"
	"testing"
)

// fuzzEntryCounts keeps the slot array tiny so eviction — and with it
// index removal and duplicate-minimum rescans — happens constantly.
var fuzzEntryCounts = [...]int{1, 2, 4, 16}

func FuzzTLBIndex(f *testing.F) {
	// Seed one stream per kind plus the duplicate-tag shapes the index
	// handles specially; the checked-in corpus under testdata/fuzz
	// extends these.
	for kind := byte(0); kind < 4; kind++ {
		seed := []byte{kind | 2<<2 | 3<<4}
		for i := byte(0); i < 12; i++ {
			op := []byte{i, i * 7, 0, byte(i % 3), 0}
			seed = append(seed, op...)
		}
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		kind := Kind(data[0] & 3)
		entries := fuzzEntryCounts[data[0]>>2&3]
		logSBF := uint(data[0]>>4&3) + 1
		p, err := newDiffPair(kind, entries, logSBF)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i+5 <= len(data) && i < 5*4096; i += 5 {
			opcode := data[i]
			x := uint64(binary.LittleEndian.Uint32(data[i+1 : i+5]))
			if err := p.applyOp(opcode, x); err != nil {
				t.Fatalf("op %d (opcode %d, x %#x): %v", i/5, opcode, x, err)
			}
		}
	})
}

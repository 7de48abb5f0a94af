package memcost

import (
	"fmt"
	"testing"
)

// refSpan is the division form of Span: the line index of a byte
// offset is off / LineSize, truncating toward zero.
func refSpan(m Model, off, length int) int {
	if length <= 0 {
		return 0
	}
	return (off+length-1)/m.LineSize - off/m.LineSize + 1
}

// refTouch is the division-plus-map form of Touch: every range's lines
// by truncating division, deduplicated in a map. It returns the lines
// and references one Touch call adds to a meter.
func refTouch(m Model, ranges ...[2]int) (lines, refs int) {
	seen := map[int]bool{}
	for _, r := range ranges {
		off, length := r[0], r[1]
		if length <= 0 {
			continue
		}
		refs++
		for l := off / m.LineSize; l <= (off+length-1)/m.LineSize; l++ {
			seen[l] = true
		}
	}
	return len(seen), refs
}

// lineSizes is every power-of-two line size the model accepts up to a
// page: 8 through 4096 bytes.
var lineSizes = []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// checkTouch compares Touch and Span with the reference at every line
// size.
func checkTouch(t *testing.T, ranges [][2]int) {
	t.Helper()
	for _, ls := range lineSizes {
		m := NewModel(ls)
		var c Meter
		c.Touch(m, ranges...)
		wantLines, wantRefs := refTouch(m, ranges...)
		if c.Lines() != wantLines || c.Refs() != wantRefs {
			t.Fatalf("line %d: Touch(%v) = %d lines %d refs, want %d lines %d refs",
				ls, ranges, c.Lines(), c.Refs(), wantLines, wantRefs)
		}
		for _, r := range ranges {
			if got, want := m.Span(r[0], r[1]), refSpan(m, r[0], r[1]); got != want {
				t.Fatalf("line %d: Span(%d, %d) = %d, want %d", ls, r[0], r[1], got, want)
			}
		}
	}
}

// TestTouchMatchesReference pins the shapes the fuzzer seeds from: a
// range straddling the bitmask's last line at every line size, negative
// offsets alone and beside masked ranges, and duplicates on both sides
// of the mask boundary.
func TestTouchMatchesReference(t *testing.T) {
	cases := [][][2]int{
		{{0, 16}},
		{{0, 16}, {16, 128}},
		{{-256, 8}},
		{{-256, 8}, {-256, 8}},
		{{-9, 10}, {0, 1}},
		{{-4096, 4097}, {8, 8}, {-1, 1}},
	}
	for _, ls := range lineSizes {
		edge := touchMaskLines * ls
		cases = append(cases,
			[][2]int{{edge - 8, 16}},
			[][2]int{{edge - 8, 16}, {edge, 8}, {0, 8}},
			[][2]int{{edge + 300*ls, 8}, {edge + 300*ls + 4, 4}, {edge - 1, 1}, {-ls, 2 * ls}},
		)
	}
	for i, ranges := range cases {
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkTouch(t, ranges) })
	}
}

// FuzzMeterTouch checks Touch and Span against the division-plus-map
// reference on one to four ranges at every line size from 8 to 4096
// bytes. Offsets span the whole int32 range — negative offsets and
// ranges straddling touchMaskLines included — and lengths may be zero
// or negative, which Touch must skip.
func FuzzMeterTouch(f *testing.F) {
	// testdata/fuzz/FuzzMeterTouch holds the named shapes: negative
	// truncation, mask-edge straddles at 8-, 256- and 4096-byte lines,
	// spilled duplicates, a clustered walk and one long range.
	f.Add(uint8(0), int32(0), int16(16), int32(0), int16(0), int32(0), int16(0), int32(0), int16(0))
	f.Fuzz(func(t *testing.T, n uint8, o0 int32, l0 int16, o1 int32, l1 int16, o2 int32, l2 int16, o3 int32, l3 int16) {
		all := [][2]int{{int(o0), int(l0)}, {int(o1), int(l1)}, {int(o2), int(l2)}, {int(o3), int(l3)}}
		checkTouch(t, all[:1+int(n)%len(all)])
	})
}

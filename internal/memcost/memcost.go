// Package memcost implements the cache-line cost model of §6.1: the
// average number of cache lines accessed to handle one TLB miss is the
// paper's (indirect) metric for page table access time. The model assumes
// a level-two cache line of 256 bytes by default and that each PTE starts
// on a cache-line boundary.
//
// Line sizes are powers of two, so lines are counted by shifting a byte
// offset right by log2(LineSize) rather than dividing — the meter runs
// on every level of every simulated walk. Negative offsets, which no
// walk produces, keep the line index truncating division gives them.
package memcost

import (
	"fmt"
	"math/bits"
)

// DefaultLineSize is the 256-byte level-two cache line assumed in §6.1.
const DefaultLineSize = 256

// Model describes the cache-line geometry used for accounting.
type Model struct {
	// LineSize is the cache line size in bytes. Must be a power of two.
	LineSize int
}

// NewModel returns a model with the given line size, defaulting to 256
// bytes if lineSize is zero.
func NewModel(lineSize int) Model {
	if lineSize == 0 {
		lineSize = DefaultLineSize
	}
	if lineSize < 8 || lineSize&(lineSize-1) != 0 {
		panic(fmt.Sprintf("memcost: invalid line size %d", lineSize))
	}
	return Model{LineSize: lineSize}
}

// Span counts the distinct cache lines covered by the byte range
// [off, off+length) within an object that starts on a line boundary.
func (m Model) Span(off, length int) int {
	if length <= 0 {
		return 0
	}
	first, last := m.lines(off, length)
	return last - first + 1
}

// lines returns the first and last line index of the non-empty byte
// range [off, off+length). A shift floors where division truncates, so
// only non-negative offsets take it.
func (m Model) lines(off, length int) (first, last int) {
	end := off + length - 1
	if off >= 0 {
		shift := uint(bits.TrailingZeros(uint(m.LineSize)))
		return off >> shift, end >> shift
	}
	return off / m.LineSize, end / m.LineSize
}

// Meter accumulates the lines touched during one page-table walk. Each
// Touch names a byte range relative to the start of one line-aligned
// object; ranges within the same object passed to a single Touch call are
// deduplicated at line granularity.
type Meter struct {
	lines int
	refs  int
}

// touchMaskLines is how many line indices the Touch fast path tracks in
// its stack bitmask. Page-table nodes are at most a few cache lines, so
// any index under 256 — every real walk — stays allocation-free.
const touchMaskLines = 256

// Touch records an access to byte ranges of one object (each range is
// {off, len}). Distinct objects require distinct Touch calls because each
// object starts on its own line boundary.
//
// Touch runs on every simulated memory reference of every walk, so it
// must not allocate: a single range's lines are distinct and need no
// dedupe; several ranges are deduplicated in a fixed bitmask on the
// stack, spilling to a map only for line indices outside
// [0, touchMaskLines).
func (c *Meter) Touch(m Model, ranges ...[2]int) {
	if len(ranges) == 1 {
		if r := ranges[0]; r[1] > 0 {
			c.refs++
			c.lines += m.Span(r[0], r[1])
		}
		return
	}
	var seen [touchMaskLines / 64]uint64
	var far map[int]bool // overflow dedupe, nil on the fast path
	for _, r := range ranges {
		off, length := r[0], r[1]
		if length <= 0 {
			continue
		}
		c.refs++
		first, last := m.lines(off, length)
		for l := first; l <= last; l++ {
			if l >= 0 && l < touchMaskLines {
				seen[l>>6] |= 1 << (l & 63)
				continue
			}
			if far == nil {
				far = map[int]bool{}
			}
			far[l] = true
		}
	}
	n := len(far)
	for _, w := range seen {
		n += bits.OnesCount64(w)
	}
	c.lines += n
}

// AddLines records n whole-line accesses directly; used by models that
// know their line count analytically (e.g. "linear page tables always
// access one cache line", §6.1).
func (c *Meter) AddLines(n int) {
	c.lines += n
	c.refs += n
}

// Lines returns the number of distinct cache lines touched.
func (c *Meter) Lines() int { return c.lines }

// Refs returns the number of memory references recorded.
func (c *Meter) Refs() int { return c.refs }

// Reset clears the meter for reuse.
func (c *Meter) Reset() { c.lines, c.refs = 0, 0 }

// Tally aggregates walk costs across an experiment.
type Tally struct {
	// Events is the number of walks (TLB misses serviced).
	Events uint64
	// Lines is the total cache lines touched across all walks.
	Lines uint64
	// Refs is the total memory references across all walks.
	Refs uint64
}

// Add folds one walk's meter into the tally.
func (t *Tally) Add(m *Meter) {
	t.Events++
	t.Lines += uint64(m.Lines())
	t.Refs += uint64(m.Refs())
}

// AddCost folds a raw line count into the tally.
func (t *Tally) AddCost(lines int) {
	t.Events++
	t.Lines += uint64(lines)
	t.Refs += uint64(lines)
}

// Merge folds another tally into this one.
func (t *Tally) Merge(o Tally) {
	t.Events += o.Events
	t.Lines += o.Lines
	t.Refs += o.Refs
}

// AvgLines returns average cache lines per event, the paper's Figure 11
// metric, normalized by denom events (pass t.Events for self-normalized).
func (t Tally) AvgLines(denom uint64) float64 {
	if denom == 0 {
		return 0
	}
	return float64(t.Lines) / float64(denom)
}

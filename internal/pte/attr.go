// Package pte implements the page-table-entry word formats of Talluri,
// Hill & Khalidi (SOSP 1995), Figures 1, 6 and 7: the 8-byte base mapping
// word, the superpage mapping word with its SZ field, the partial-subblock
// mapping word with its 16-bit valid vector, and the S field that lets all
// three coreside in one clustered page table.
package pte

import "strings"

// Attr holds the low 12 attribute bits of a mapping word (Figure 1):
// hardware protection and status bits plus software-reserved bits.
type Attr uint16

// Attribute bits. In the paper the TLB miss handler maintains REF and
// MOD without acquiring locks (§3.1); this simulator never sets them
// on a walk, so they change only through the tables' locked write
// paths (Map, ProtectRange).
const (
	AttrR   Attr = 1 << iota // readable
	AttrW                    // writable
	AttrX                    // executable
	AttrU                    // user accessible
	AttrG                    // global (not flushed on context switch)
	AttrC                    // cacheable
	AttrRef                  // referenced
	AttrMod                  // modified
	AttrSW0                  // software reserved
	AttrSW1                  // software reserved
	AttrSW2                  // software reserved
	AttrSW3                  // software reserved

	// AttrMask covers all twelve architectural attribute bits.
	AttrMask Attr = 1<<12 - 1
	// AttrNone is the zero attribute set.
	AttrNone Attr = 0
)

// attrNames maps single bits to their short names, in bit order.
var attrNames = []struct {
	bit  Attr
	name string
}{
	{AttrR, "r"}, {AttrW, "w"}, {AttrX, "x"}, {AttrU, "u"},
	{AttrG, "g"}, {AttrC, "c"}, {AttrRef, "ref"}, {AttrMod, "mod"},
	{AttrSW0, "sw0"}, {AttrSW1, "sw1"}, {AttrSW2, "sw2"}, {AttrSW3, "sw3"},
}

// Has reports whether every bit in q is set in a.
func (a Attr) Has(q Attr) bool { return a&q == q }

// Protection returns only the protection bits (R, W, X, U, G, C),
// discarding status and software bits. Two mappings are promotion-
// compatible when their protections match (§5).
func (a Attr) Protection() Attr { return a & (AttrR | AttrW | AttrX | AttrU | AttrG | AttrC) }

// String renders the attribute set, e.g. "r|w|ref".
func (a Attr) String() string {
	if a == 0 {
		return "-"
	}
	var parts []string
	for _, n := range attrNames {
		if a.Has(n.bit) {
			parts = append(parts, n.name)
		}
	}
	return strings.Join(parts, "|")
}

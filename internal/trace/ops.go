package trace

import (
	"fmt"

	"clusterpt/internal/addr"
	"clusterpt/internal/pte"
)

// This file generates page-table *operation* streams — the mixed
// lookup/map/unmap/protect traffic a concurrent page-table service
// sees — as opposed to the pure reference traces Generator produces for
// the TLB simulations. Streams are deterministic per seed: the same
// (snapshot, seed, mix) always yields the same op sequence, so the
// differential oracle and the race stress tests replay identical traffic
// against every organization.

// OpKind labels one page-table operation.
type OpKind uint8

// The operation set of the concurrent service layer.
const (
	OpLookup OpKind = iota
	OpMap
	OpUnmap
	OpProtect
	numOpKinds
)

// String names the kind for diagnostics.
func (k OpKind) String() string {
	switch k {
	case OpLookup:
		return "lookup"
	case OpMap:
		return "map"
	case OpUnmap:
		return "unmap"
	case OpProtect:
		return "protect"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one page-table operation. VPN is the target page; for OpProtect
// the operation covers [VPN, VPN+Pages). PPN and Attr are meaningful for
// OpMap; Set/Clear for OpProtect.
type Op struct {
	Kind  OpKind
	VPN   addr.VPN
	Pages uint32
	PPN   addr.PPN
	Attr  pte.Attr
	Set   pte.Attr
	Clear pte.Attr
}

// OpMix weights the operation kinds. The zero value is invalid; use
// DefaultOpMix or ReadHeavyMix as starting points.
type OpMix struct {
	Lookup, Map, Unmap, Protect int
}

// DefaultOpMix models steady-state serving traffic: translation-dominated
// with a visible mutation tail, the regime where page-table mutation
// becomes the bottleneck on large machines.
var DefaultOpMix = OpMix{Lookup: 90, Map: 5, Unmap: 4, Protect: 1}

// WriteHeavyMix stresses the mutation path: half the stream mutates.
var WriteHeavyMix = OpMix{Lookup: 50, Map: 25, Unmap: 20, Protect: 5}

func (m OpMix) total() int { return m.Lookup + m.Map + m.Unmap + m.Protect }

// OpStream deterministically generates operations over one process
// snapshot's address space. Concurrent drivers create one stream per
// goroutine with per-goroutine seeds (DeriveSeed) over the *same*
// snapshot, so streams overlap in the pages they touch — the contention
// pattern the striped service layer is built for.
type OpStream struct {
	rng   *RNG
	pages []addr.VPN
	mix   OpMix
	// ppnSalt makes frame choices stream-specific, so replays of the same
	// stream are reproducible while different streams map different
	// frames.
	ppnSalt uint64
}

// NewOpStream builds a stream over s's mapped pages. It panics if the mix
// has no weight or the snapshot no pages — both programming errors.
func NewOpStream(s ProcessSnapshot, seed uint64, mix OpMix) *OpStream {
	return NewOpStreamOver(s.AllPages(), seed, mix)
}

// NewOpStreamOver is NewOpStream over a page list already built by
// ProcessSnapshot.AllPages. The stream only reads pages, so streams over
// one snapshot may share one list.
func NewOpStreamOver(pages []addr.VPN, seed uint64, mix OpMix) *OpStream {
	if mix.total() <= 0 {
		panic("trace: OpMix with no weight")
	}
	if len(pages) == 0 {
		panic("trace: OpStream over empty snapshot")
	}
	return &OpStream{
		rng:     NewRNG(seed ^ 0x0b5_57),
		pages:   pages,
		mix:     mix,
		ppnSalt: seed*0x9e3779b97f4a7c15 + 1,
	}
}

// PPNFor derives the frame a stream maps vpn to. It is a pure function
// of (stream seed, vpn), so a reference model replaying the stream can
// predict frames without tracking map order, and remapping a page after
// unmap reinstalls the same frame (keeping racing map/unmap pairs
// idempotent in the differential oracle).
func (s *OpStream) PPNFor(vpn addr.VPN) addr.PPN {
	z := uint64(vpn) ^ s.ppnSalt
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return addr.PPN((z ^ z>>31) & (1<<24 - 1))
}

// Next returns the next operation.
func (s *OpStream) Next() Op {
	vpn := s.pages[s.rng.Intn(len(s.pages))]
	x := s.rng.Intn(s.mix.total())
	switch {
	case x < s.mix.Lookup:
		return Op{Kind: OpLookup, VPN: vpn}
	case x < s.mix.Lookup+s.mix.Map:
		attr := pte.AttrR
		if s.rng.Intn(2) == 1 {
			attr |= pte.AttrW
		}
		return Op{Kind: OpMap, VPN: vpn, PPN: s.PPNFor(vpn), Attr: attr}
	case x < s.mix.Lookup+s.mix.Map+s.mix.Unmap:
		return Op{Kind: OpUnmap, VPN: vpn}
	default:
		// Protect a short run of pages: long enough to span a page-block
		// boundary now and then, short enough to stay a targeted op.
		n := uint32(1 + s.rng.Intn(32))
		set, clear := pte.AttrRef, pte.AttrNone
		if s.rng.Intn(2) == 1 {
			set, clear = pte.AttrNone, pte.AttrRef
		}
		return Op{Kind: OpProtect, VPN: vpn, Pages: n, Set: set, Clear: clear}
	}
}

// Fill appends n operations to out (allocating if nil) and returns it.
func (s *OpStream) Fill(out []Op, n int) []Op {
	if out == nil {
		out = make([]Op, 0, n)
	}
	for i := 0; i < n; i++ {
		out = append(out, s.Next())
	}
	return out
}

// Range returns the protect range of op.
func (op Op) Range() addr.Range {
	return addr.PageRange(addr.VAOf(op.VPN), uint64(op.Pages))
}

package tlb

// Differential suite for the TLB: the indexed production TLB and the
// linear-scan reference model (refTLB, ref_test.go) consume identical
// operation streams and must agree on every Access Result, every
// Translate answer, every Stats field, and — checked after every
// operation — the complete entry array including LRU ticks. Entry-array
// equality is the victim-choice check: if the two ever picked different
// victims their slot contents would diverge on the next insert.
//
// Every fill is a mapping word built by the pte constructors, with
// aligned frames in the stream's block geometry. The production TLB
// takes it through its word core (InsertWord, InsertBlockWords) or, on
// alternate ops, through the entry adapters (Insert, InsertBlock); the
// reference model keeps entry semantics and takes the word decoded by
// pte.EntryFromWord.
//
// The same op semantics back FuzzTLBIndex (fuzz_test.go), so anything
// the fuzzer finds is replayable here.

import (
	"fmt"
	"math/rand"
	"testing"

	"clusterpt/internal/addr"
	"clusterpt/internal/pte"
)

// diffPair is a production TLB and its reference-model twin.
type diffPair struct {
	fast *TLB
	ref  *refTLB
}

func newDiffPair(kind Kind, entries int, logSBF uint) (*diffPair, error) {
	fast, err := New(Config{Kind: kind, Entries: entries, LogSBF: logSBF})
	if err != nil {
		return nil, err
	}
	return &diffPair{fast: fast, ref: newRefTLB(kind, entries, fast.cfg.LogSBF)}, nil
}

// diffSpanSizes are the superpage sizes op streams draw from.
var diffSpanSizes = [...]addr.Size{addr.Size4K, addr.Size64K, addr.Size256K, addr.Size1M}

// diffFrame places every page at a fixed offset aligned to every span
// size, so superpage and partial-subblock frames are properly placed.
func diffFrame(vpn addr.VPN) addr.PPN { return addr.PPN(vpn) + 1<<20 }

// diffWord derives a page and its mapping word from raw op payload
// bits. The VPN universe is deliberately small (1024 pages) so streams
// revisit pages, overlap spans with singles, and insert duplicate tags.
func diffWord(x uint64, logSBF uint) (addr.VPN, pte.Word) {
	vpn := addr.VPN(x & 0x3ff)
	return vpn, diffWordAt(vpn, x, logSBF)
}

// diffWordAt builds vpn's word of the kind the payload bits x select —
// a base page, a superpage of one of diffSpanSizes, or a
// partial-subblock block with valid vector x>>16 in the stream's
// logSBF geometry — with the page's diffFrame, aligned as the
// constructors require.
func diffWordAt(vpn addr.VPN, x uint64, logSBF uint) pte.Word {
	switch x >> 10 & 3 {
	case 2:
		size := diffSpanSizes[x>>12&3]
		return pte.MakeSuperpage(diffFrame(vpn)&^addr.PPN(size.Pages()-1), 0, size)
	case 3:
		return pte.MakePartial(diffFrame(vpn)&^addr.PPN(1<<logSBF-1), 0, uint16(x>>16), logSBF)
	}
	return pte.MakeBase(diffFrame(vpn), 0)
}

// access drives both TLBs with one access and returns the production
// TLB's result, or an error if the two results differ.
func (p *diffPair) access(va addr.V) (Result, error) {
	fr := p.fast.Access(va)
	if rr := p.ref.Access(va); fr != rr {
		return fr, fmt.Errorf("Access(%#x): indexed %+v vs ref %+v", va, fr, rr)
	}
	return fr, nil
}

// decode is the entry the reference model takes for word w at vpn.
func (p *diffPair) decode(vpn addr.VPN, w pte.Word) pte.Entry {
	_, boff := addr.BlockSplit(vpn, p.ref.logSBF)
	return pte.EntryFromWord(w, vpn, boff)
}

// insert fills the production TLB with word w for vpn — through
// InsertWord, or through the Insert adapter on the decoded entry when
// viaEntry — and the reference model with the decoded entry.
func (p *diffPair) insert(vpn addr.VPN, w pte.Word, viaEntry bool) {
	e := p.decode(vpn, w)
	if viaEntry {
		p.fast.Insert(e)
	} else {
		p.fast.InsertWord(vpn, w)
	}
	p.ref.Insert(e)
}

// insertBlock prefetches block vpbn from words indexed by block offset
// (pte.Invalid unmapped): into the production TLB through
// InsertBlockWords, or through the InsertBlock adapter on the decoded
// entries when viaEntries, and into the reference model as the decoded
// entries.
func (p *diffPair) insertBlock(vpbn addr.VPBN, words []pte.Word, viaEntries bool) {
	var es []pte.Entry
	for boff, w := range words {
		if w != pte.Invalid {
			es = append(es, p.decode(addr.BlockJoin(vpbn, uint64(boff), p.ref.logSBF), w))
		}
	}
	if viaEntries {
		p.fast.InsertBlock(vpbn, es)
	} else {
		p.fast.InsertBlockWords(vpbn, words)
	}
	p.ref.InsertBlock(vpbn, es)
}

func (p *diffPair) invalidate(vpn addr.VPN) {
	p.fast.Invalidate(vpn)
	p.ref.Invalidate(vpn)
}

// opInvalidate is the first invalidate opcode. Opcodes below it decode
// by opcode % 9 (243 = 27×9, so each of those nine ops keeps an equal
// share); the thirteen at and above it are single-page shootdowns.
const opInvalidate = 243

// applyOp drives both TLBs with one decoded operation and reports the
// first observable divergence. Opcode space, below opInvalidate by
// opcode % 9: 0-4 access, 5 insert, 6 translate, 7 flush, 8 block
// prefetch (complete-subblock only, otherwise an insert); opInvalidate
// and above: invalidate. Fills reach the production TLB as words
// (InsertWord, InsertBlockWords) when opcode/9 is even and through the
// entry adapters (Insert, InsertBlock) when it is odd.
func (p *diffPair) applyOp(opcode uint8, x uint64) error {
	if opcode >= opInvalidate {
		p.invalidate(addr.VPN(x & 0x3ff))
		return p.stateEqual()
	}
	viaEntry := opcode/9%2 == 1
	switch opcode % 9 {
	case 5:
		vpn, w := diffWord(x, p.ref.logSBF)
		p.insert(vpn, w, viaEntry)
	case 6:
		va := addr.VAOf(addr.VPN(x & 0x3ff))
		fp, fok := p.fast.Translate(va)
		rp, rok := p.ref.Translate(va)
		if fp != rp || fok != rok {
			return fmt.Errorf("Translate(%#x): indexed (%d,%v) vs ref (%d,%v)", va, fp, fok, rp, rok)
		}
	case 7:
		p.fast.Flush()
		p.ref.Flush()
	case 8:
		vpn, w := diffWord(x, p.ref.logSBF)
		if p.fast.Kind() != CompleteSubblock {
			p.insert(vpn, w, viaEntry)
			break
		}
		// Up to four of the block's pages, each a word of the kind x
		// selects.
		vpbn, _ := addr.BlockSplit(vpn, p.ref.logSBF)
		var block [pte.MaxBlockWords]pte.Word
		words := block[:1<<p.ref.logSBF]
		for i := uint64(0); i < 4; i++ {
			off := x >> (16 + 4*i) & (1<<p.ref.logSBF - 1)
			words[off] = diffWordAt(addr.BlockJoin(vpbn, off, p.ref.logSBF), x, p.ref.logSBF)
		}
		p.insertBlock(vpbn, words, viaEntry)
	default:
		if _, err := p.access(addr.VAOf(addr.VPN(x&0x3ff)) + addr.V(x>>10&0xfff)); err != nil {
			return err
		}
	}
	return p.stateEqual()
}

// stateEqual compares the traffic counters and the complete slot
// arrays, LRU ticks included.
func (p *diffPair) stateEqual() error {
	if p.fast.stats != p.ref.stats {
		return fmt.Errorf("stats diverged: indexed %+v vs ref %+v", p.fast.stats, p.ref.stats)
	}
	if p.fast.tick != p.ref.tick {
		return fmt.Errorf("tick diverged: %d vs %d", p.fast.tick, p.ref.tick)
	}
	for i := range p.fast.entries {
		f, r := &p.fast.entries[i], &p.ref.entries[i]
		if f.valid != r.valid || f.format != r.format || f.vpn != r.vpn ||
			f.size != r.size || f.vpbn != r.vpbn || f.mask != r.mask ||
			f.ppn != r.ppn || f.lru != r.lru {
			return fmt.Errorf("slot %d diverged: indexed %+v vs ref %+v", i, *f, *r)
		}
		if len(f.ppns) != len(r.ppns) {
			return fmt.Errorf("slot %d ppns length: %d vs %d", i, len(f.ppns), len(r.ppns))
		}
		for b := range f.ppns {
			if f.ppns[b] != r.ppns[b] {
				return fmt.Errorf("slot %d ppns[%d]: %d vs %d", i, b, f.ppns[b], r.ppns[b])
			}
		}
	}
	return nil
}

var diffKinds = [...]Kind{SinglePageSize, Superpage, PartialSubblock, CompleteSubblock}

// TestTLBIndexDifferential replays randomized op streams over every
// kind and several entry counts, including degenerate one- and
// two-entry TLBs where eviction churn (and therefore index removal,
// duplicate-minimum rescans, and victim agreement) is constant.
func TestTLBIndexDifferential(t *testing.T) {
	for _, kind := range diffKinds {
		for _, entries := range []int{1, 2, 3, 64} {
			t.Run(fmt.Sprintf("%v/e%d", kind, entries), func(t *testing.T) {
				for seed := int64(0); seed < 5; seed++ {
					p, err := newDiffPair(kind, entries, 4)
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(seed*1000 + int64(entries)))
					for op := 0; op < 4000; op++ {
						if err := p.applyOp(uint8(rng.Intn(256)), rng.Uint64()); err != nil {
							t.Fatalf("seed %d op %d: %v", seed, op, err)
						}
					}
				}
			})
		}
	}
}

// TestTLBDifferentialInvalidate interleaves single-page shootdowns with
// the randomized op streams, so slots freed below the fill watermark
// must be refilled lowest index first, before any valid entry is
// evicted.
func TestTLBDifferentialInvalidate(t *testing.T) {
	for _, kind := range diffKinds {
		for _, entries := range []int{1, 2, 3, 64} {
			p, err := newDiffPair(kind, entries, 4)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(entries)*7 + int64(kind)))
			for op := 0; op < 20000; op++ {
				if rng.Intn(8) == 0 {
					p.invalidate(addr.VPN(rng.Intn(0x400)))
					err = p.stateEqual()
				} else {
					err = p.applyOp(uint8(rng.Intn(256)), rng.Uint64())
				}
				if err != nil {
					t.Fatalf("%v entries=%d op %d: %v", kind, entries, op, err)
				}
			}
		}
	}
}

// TestTLBIndexDuplicateTags drives the duplicate-tag corner cases the
// randomized streams only hit probabilistically: repeated identical
// single-page inserts, a span shadowing a single of the same base, and
// same-VPBN partial-subblock entries with different masks — the one
// shape that forces the index's slot-order fallback among duplicates.
func TestTLBIndexDuplicateTags(t *testing.T) {
	t.Run("duplicate-singles", func(t *testing.T) {
		p, err := newDiffPair(SinglePageSize, 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if err := p.applyOp(5, 7); err != nil { // same VPN 7 six times
				t.Fatal(err)
			}
		}
		for i := 0; i < 20; i++ {
			if err := p.applyOp(0, uint64(i%3)*3); err != nil { // evict some dups
				t.Fatal(err)
			}
			if err := p.applyOp(5, uint64(16+i)); err != nil {
				t.Fatal(err)
			}
			if err := p.applyOp(0, 7); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Run("span-shadows-single", func(t *testing.T) {
		p, err := newDiffPair(Superpage, 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		// Single for page 0x21, then a 64KB span covering 0x20..0x2f.
		if err := p.applyOp(5, 0x21); err != nil {
			t.Fatal(err)
		}
		if err := p.applyOp(5, 0x21|2<<10|1<<12); err != nil {
			t.Fatal(err)
		}
		for vpn := uint64(0x20); vpn < 0x30; vpn++ {
			if err := p.applyOp(0, vpn); err != nil {
				t.Fatal(err)
			}
			if err := p.applyOp(6, vpn); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Run("psb-mask-duplicates", func(t *testing.T) {
		p, err := newDiffPair(PartialSubblock, 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		// Two entries for the same block with disjoint masks: the lowest
		// slot does not cover subblocks the higher slot does.
		if err := p.applyOp(5, 0x40|3<<10|0x00f0<<16); err != nil {
			t.Fatal(err)
		}
		if err := p.applyOp(5, 0x40|3<<10|0x000f<<16); err != nil {
			t.Fatal(err)
		}
		for vpn := uint64(0x40); vpn < 0x50; vpn++ {
			if err := p.applyOp(0, vpn); err != nil {
				t.Fatal(err)
			}
			if err := p.applyOp(6, vpn); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestTLBDifferentialStreamShapes replays the working-set shapes that
// stress true LRU — uniform random, a sequential sweep, and a hot head —
// over spans just below, at, and just above the TLB size, inserting a
// base page on every miss. Every hit/miss decision, victim, and LRU
// tick is compared against the reference model. Superpage and
// partial-subblock TLBs store a base PTE exactly as a single-page-size
// TLB does, so only the two kinds with distinct base-page formats run.
func TestTLBDifferentialStreamShapes(t *testing.T) {
	for _, kind := range []Kind{SinglePageSize, CompleteSubblock} {
		for _, entries := range []int{1, 4, 64} {
			for _, span := range []int{2, 60, 64, 65, 400} {
				p, err := newDiffPair(kind, entries, 4)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(entries*1000 + span)))
				for i := 0; i < 20000; i++ {
					var vpn uint64
					switch rng.Intn(3) {
					case 0: // uniform random
						vpn = uint64(rng.Intn(span))
					case 1: // sequential sweep
						vpn = uint64(i % span)
					default: // hot head
						vpn = uint64(rng.Intn(span/4 + 1))
					}
					misses := p.fast.stats.Misses
					if err := p.applyOp(0, vpn); err != nil {
						t.Fatalf("%v entries=%d span=%d step %d: %v", kind, entries, span, i, err)
					}
					if p.fast.stats.Misses == misses {
						continue
					}
					if err := p.applyOp(5, vpn); err != nil {
						t.Fatalf("%v entries=%d span=%d step %d insert: %v", kind, entries, span, i, err)
					}
				}
			}
		}
	}
}

package sim

import (
	"fmt"

	"clusterpt/internal/addr"
	"clusterpt/internal/memcost"
	"clusterpt/internal/mm"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
	"clusterpt/internal/tlb"
	"clusterpt/internal/trace"
)

// This file replays dynamic-churn workloads: a trace.ChurnStream
// mutates a live address space — map, unmap, demand-fault, promote,
// demote — through the mm reservation allocator while per-epoch
// reference bursts measure the TLB consequences. Unlike the static
// figures, superpage eligibility here is a casualty of history: every
// freed sub-block scatters frames, reservations get stolen, and compact
// PTE coverage decays with op count. Each epoch is guarded by the churn
// differential oracle: the organization under test must agree
// translation-for-translation with a plain-map model grown from the
// allocator's own frame choices (mm's OnMap hook).

// ChurnVariants returns the four organizations the churn family
// compares, in fixed report order. All four implement the superpage and
// partial-subblock mapping interfaces, so every replay pushes the
// identical op stream through the identical allocator policy.
func ChurnVariants() []TableVariant {
	return []TableVariant{
		{Name: "linear-1level", New: variantLinear1},
		{Name: "forward-mapped", New: variantForward},
		{Name: "hashed", New: variantHashedMulti},
		{Name: "clustered", New: variantClustered},
	}
}

// ChurnConfig parameterizes one churn replay.
type ChurnConfig struct {
	// Refs is the total burst references across all epochs.
	Refs int
	// Seed derives the op stream and the burst addresses.
	Seed uint64
	// Entries is the TLB size; default 64 (§6.1).
	Entries int
	// Check runs the differential oracle sweep every epoch, failing the
	// replay on the first divergence from the reference model.
	Check bool
	// MMU selects the translation hierarchy the burst loop runs through.
	// The zero value is the flat single TLB and reproduces the
	// pre-hierarchy series byte for byte; with lower levels configured,
	// the epoch-boundary shootdown flushes every level and the walk
	// cache, and Misses counts only full misses that reached the table.
	MMU MMUConfig
}

// ChurnPoint is one epoch's time-series sample for one organization.
type ChurnPoint struct {
	// Epoch indexes the sample; Ops is the cumulative mutation-op count.
	Epoch int
	Ops   uint64
	// Refs, Misses and Faults account the epoch's burst: TLB misses
	// serviced by the table, and references to unmapped pages.
	Refs   uint64
	Misses uint64
	Faults uint64
	// LiveBytes is measured table memory (pagetable.MemStats).
	LiveBytes uint64
	// MappedPages, SuperPages and PartialPages count base pages mapped,
	// and how many of them superpage / partial-subblock PTEs cover.
	MappedPages  uint64
	SuperPages   uint64
	PartialPages uint64
	// FragIndex is allocator free-space fragmentation: the fraction of
	// free frames unable to seed a new aligned reservation (0 = every
	// free frame sits in a whole free block).
	FragIndex float64
	// Steals is the cumulative broken-reservation count.
	Steals uint64
}

// MissRate returns burst misses per reference.
func (p ChurnPoint) MissRate() float64 {
	if p.Refs == 0 {
		return 0
	}
	return float64(p.Misses) / float64(p.Refs)
}

// ChurnSeries is one organization's full time series under one profile.
type ChurnSeries struct {
	Workload string
	Profile  string
	Org      string
	Points   []ChurnPoint
}

// churnRef is the reference model's value for one mapped page.
type churnRef struct {
	ppn  addr.PPN
	attr pte.Attr
}

// churnMachine is one organization's live replay state: the address
// space under churn and the plain-map model the oracle compares it to.
type churnMachine struct {
	pt     pagetable.PageTable
	space  *mm.AddressSpace
	layout []trace.ChurnVMA
	model  map[addr.VPN]churnRef
	logSBF uint
	ops    uint64
}

// newChurnMachine reserves the layout's VMAs over a fresh table and
// allocator and populates the initial snapshot pages, with the model
// learning every installed translation through mm's OnMap hook. Frames
// are sized for the layout's worst case (snapshot plus arenas) with 2x
// headroom, matching the static builds' sizing rule.
func newChurnMachine(v TableVariant, layout []trace.ChurnVMA) (*churnMachine, error) {
	var pages uint64
	for _, vma := range layout {
		if vma.Initial != nil {
			pages += uint64(len(vma.Initial))
		} else {
			pages += vma.Range.NumPages()
		}
	}
	frames := pages*2 + 64
	frames = (frames + 15) &^ 15
	m := &churnMachine{
		pt:     v.New(memcost.NewModel(0)),
		layout: layout,
		model:  make(map[addr.VPN]churnRef, pages),
		logSBF: 4,
	}
	m.space = mm.NewAddressSpace(m.pt, mm.MustNewAllocator(frames, 4),
		mm.Policy{UseSuperpages: true, UsePartial: true})
	m.space.OnMap = func(vpn addr.VPN, ppn addr.PPN, attr pte.Attr) {
		m.model[vpn] = churnRef{ppn: ppn, attr: attr}
	}
	for _, vma := range layout {
		if err := m.space.Reserve(vma.Range, vma.Attr, vma.Name); err != nil {
			return nil, fmt.Errorf("churn: reserve %s: %w", vma.Name, err)
		}
		if err := populatePages(m.space, vma.Initial); err != nil {
			return nil, fmt.Errorf("churn: populate %s: %w", vma.Name, err)
		}
	}
	return m, nil
}

// populatePages populates an ascending page list, batching contiguous
// runs so the block-level policy sees real region shapes.
func populatePages(space *mm.AddressSpace, pages []addr.VPN) error {
	if len(pages) == 0 {
		return nil
	}
	runStart, prev := pages[0], pages[0]
	flush := func(last addr.VPN) error {
		return space.Populate(addr.PageRange(addr.VAOf(runStart), uint64(last-runStart)+1))
	}
	for _, vpn := range pages[1:] {
		if vpn == prev+1 {
			prev = vpn
			continue
		}
		if err := flush(prev); err != nil {
			return err
		}
		runStart, prev = vpn, vpn
	}
	return flush(prev)
}

// apply executes one churn op against the space and keeps the model in
// lockstep: maps are clipped to the model's holes before populating,
// unmaps evict through the table and then erase the range from the
// model, touches fault pages in (the OnMap hook records them) and
// attempt promotion per block, demotes split compact PTEs in place.
func (m *churnMachine) apply(op trace.ChurnOp) error {
	m.ops++
	r := op.Range()
	switch op.Kind {
	case trace.ChurnMap:
		// Populate the unmapped runs of the range.
		var runStart addr.VPN
		inRun := false
		var err error
		r.Pages(func(vpn addr.VPN) bool {
			if _, mapped := m.model[vpn]; mapped {
				if inRun {
					err = m.space.Populate(addr.PageRange(addr.VAOf(runStart), uint64(vpn-runStart)))
					inRun = false
				}
				return err == nil
			}
			if !inRun {
				runStart, inRun = vpn, true
			}
			return true
		})
		if err == nil && inRun {
			err = m.space.Populate(addr.PageRange(addr.VAOf(runStart), uint64(r.LastVPN()-runStart)+1))
		}
		if err != nil {
			return fmt.Errorf("churn map %v: %w", r, err)
		}
	case trace.ChurnUnmap:
		if err := m.space.EvictRange(r); err != nil {
			return fmt.Errorf("churn unmap %v: %w", r, err)
		}
		r.Pages(func(vpn addr.VPN) bool {
			delete(m.model, vpn)
			return true
		})
	case trace.ChurnTouch:
		var err error
		r.Pages(func(vpn addr.VPN) bool {
			if _, mapped := m.model[vpn]; !mapped {
				_, err = m.space.Touch(addr.VAOf(vpn))
			}
			return err == nil
		})
		if err != nil {
			return fmt.Errorf("churn touch %v: %w", r, err)
		}
		r.Blocks(m.logSBF, func(vpbn addr.VPBN, lo, _ uint64) bool {
			m.space.TryPromote(addr.BlockJoin(vpbn, lo, m.logSBF))
			return true
		})
	case trace.ChurnDemote:
		r.Blocks(m.logSBF, func(vpbn addr.VPBN, lo, _ uint64) bool {
			m.space.Demote(addr.BlockJoin(vpbn, lo, m.logSBF))
			return true
		})
	default:
		return fmt.Errorf("churn: unknown op kind %v", op.Kind)
	}
	return nil
}

// sweepCounts is one oracle/coverage sweep's tally.
type sweepCounts struct {
	mapped uint64
	sp     uint64
	psb    uint64
}

// sweep walks every page of every VMA in layout order, counting
// coverage by PTE kind; with check set it also holds the table to the
// model — same mapped set, same frame, same attributes — and the model
// to the table (no phantom model entries), the epoch-level differential
// oracle contract.
func (m *churnMachine) sweep(check bool) (sweepCounts, error) {
	var c sweepCounts
	var err error
	for _, vma := range m.layout {
		vma.Range.Pages(func(vpn addr.VPN) bool {
			e, _, ok := m.pt.Lookup(addr.VAOf(vpn))
			want, mapped := m.model[vpn]
			if ok {
				c.mapped++
				switch e.Kind {
				case pte.KindSuperpage:
					c.sp++
				case pte.KindPartial:
					c.psb++
				}
			}
			if !check {
				return true
			}
			if ok != mapped {
				err = fmt.Errorf("churn oracle: %s: vpn %#x mapped=%v, model says %v",
					m.pt.Name(), uint64(vpn), ok, mapped)
				return false
			}
			if ok && (e.PPN != want.ppn || e.Attr != want.attr) {
				err = fmt.Errorf("churn oracle: %s: vpn %#x = (ppn %#x, %v), model (ppn %#x, %v)",
					m.pt.Name(), uint64(vpn), uint64(e.PPN), e.Attr, uint64(want.ppn), want.attr)
				return false
			}
			return true
		})
		if err != nil {
			return c, err
		}
	}
	if check && c.mapped != uint64(len(m.model)) {
		return c, fmt.Errorf("churn oracle: %s: table maps %d pages in-layout, model holds %d",
			m.pt.Name(), c.mapped, len(m.model))
	}
	return c, nil
}

// RunChurn replays one (workload, churn profile) pair against one
// organization and returns its epoch time series. The op stream, frame
// choices and burst addresses are pure functions of (profile, seed), so
// the series is byte-for-byte reproducible regardless of scheduling.
func RunChurn(p trace.Profile, cp trace.ChurnProfile, v TableVariant, cfg ChurnConfig) (ChurnSeries, error) {
	if cfg.Entries == 0 {
		cfg.Entries = 64
	}
	snap := p.ProcSnapshot(0)
	stream := trace.NewChurnStream(snap, cfg.Seed, cp)
	m, err := newChurnMachine(v, stream.Layout())
	if err != nil {
		return ChurnSeries{}, err
	}
	// One superpage-kind TLB per replay: base pages take one slot each,
	// a superpage entry covers its whole block, so TLB reach tracks the
	// organization's surviving compact-PTE coverage. The hierarchy wraps
	// it with the configured lower levels (flat by default, delegating
	// every call to the bare TLB); its Flush at every epoch boundary is
	// the mutation batch's shootdown, now a per-level invalidate.
	tb := tlb.MustNew(tlb.Config{Kind: tlb.Superpage, Entries: cfg.Entries})
	h := cfg.MMU.BuildHierarchy(tb, m.pt, memcost.NewModel(0))
	burst := trace.NewChurnBurst(stream.Layout(), cfg.Seed)

	refsPerEpoch := cfg.Refs / cp.Epochs
	if refsPerEpoch < 1 {
		refsPerEpoch = 1
	}
	series := ChurnSeries{Workload: p.Name, Profile: cp.Name, Org: v.Name,
		Points: make([]ChurnPoint, 0, cp.Epochs)}
	var opBuf []trace.ChurnOp
	for e := 0; e < cp.Epochs; e++ {
		opBuf = stream.NextEpoch(opBuf)
		for _, op := range opBuf {
			if err := m.apply(op); err != nil {
				return ChurnSeries{}, fmt.Errorf("%s epoch %d: %w", v.Name, e, err)
			}
		}
		counts, err := m.sweep(cfg.Check)
		if err != nil {
			return ChurnSeries{}, fmt.Errorf("epoch %d: %w", e, err)
		}

		h.Flush()
		h.ResetStats()
		var misses, faults uint64
		for i := 0; i < refsPerEpoch; i++ {
			va := burst.Next()
			if h.Access(va).Hit {
				continue
			}
			if entry, walk, ok := m.pt.Lookup(va); ok {
				misses++
				_ = h.FilterWalk(addr.VPNOf(va), walk)
				h.Insert(entry)
			} else {
				faults++
			}
		}

		var live uint64
		if mr, ok := m.pt.(pagetable.MemReporter); ok {
			live = mr.MemStats().LiveBytes()
		}
		freeFrames, wholeFree := m.space.Allocator().FragStats()
		frag := 0.0
		if freeFrames > 0 {
			frag = 1 - float64(wholeFree)/float64(freeFrames)
		}
		series.Points = append(series.Points, ChurnPoint{
			Epoch:        e,
			Ops:          m.ops,
			Refs:         uint64(refsPerEpoch),
			Misses:       misses,
			Faults:       faults,
			LiveBytes:    live,
			MappedPages:  counts.mapped,
			SuperPages:   counts.sp,
			PartialPages: counts.psb,
			FragIndex:    frag,
			Steals:       m.space.Allocator().Stats().Steals,
		})
	}
	return series, nil
}

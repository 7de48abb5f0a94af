package bench

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"clusterpt/internal/addr"
	"clusterpt/internal/core"
	"clusterpt/internal/pagetable"
	"clusterpt/internal/pte"
	"clusterpt/internal/service"
	"clusterpt/internal/trace"
)

// The service workload is a closed loop: each of the clients issues its
// next request only after the previous one returns, with no think time,
// against one service.Service over a clustered table. Every client
// replays its own trace.OpStream over the same gcc snapshot, so the
// clients contend on the same pages the way concurrent threads of one
// address space do.

// serviceRoundOps is one client's round: wall_s and cpu_s on the
// service workload are per 2^20 requests of one client.
const serviceRoundOps = 1 << 20

// serviceBuckets sizes the clustered table's hash (the paper's base
// case).
const serviceBuckets = 4096

// serviceSnapshot is the address space the service workload serves.
func serviceSnapshot() (trace.ProcessSnapshot, error) {
	p, ok := trace.ProfileByName("gcc")
	if !ok {
		return trace.ProcessSnapshot{}, fmt.Errorf("no gcc profile")
	}
	return p.Snapshot()[0], nil
}

// serviceStreams returns one op stream per client over snap, each
// seeded from the workload seed and the client's index.
func serviceStreams(snap trace.ProcessSnapshot, seed uint64, clients int) []*trace.OpStream {
	streams := make([]*trace.OpStream, clients)
	for i := range streams {
		streams[i] = trace.NewOpStream(snap, trace.DeriveSeed(seed, fmt.Sprintf("service/%d", i)), trace.DefaultOpMix)
	}
	return streams
}

// mapping is the plain-map model's value for one page.
type mapping struct {
	ppn  addr.PPN
	attr pte.Attr
}

// newServing builds the served table and faults the snapshot in with
// one MapRange per contiguous run, frames handed out in order. It
// returns the frames it installed, keyed by page.
func newServing(snap trace.ProcessSnapshot) (*service.Service, map[addr.VPN]mapping, error) {
	table, err := core.New(core.Config{Buckets: serviceBuckets})
	if err != nil {
		return nil, nil, err
	}
	svc, err := service.Wrap(table, service.Config{})
	if err != nil {
		return nil, nil, err
	}
	model := make(map[addr.VPN]mapping)
	frame := addr.PPN(1 << 20)
	attr := pte.AttrR | pte.AttrW
	for _, reg := range snap.Regions {
		for i := 0; i < len(reg.Pages); {
			j := i + 1
			for j < len(reg.Pages) && reg.Pages[j] == reg.Pages[j-1]+1 {
				j++
			}
			if _, err := svc.MapRange(reg.Pages[i], frame, uint64(j-i), attr); err != nil {
				return nil, nil, fmt.Errorf("prepopulate: %w", err)
			}
			for k := i; k < j; k++ {
				model[reg.Pages[k]] = mapping{frame + addr.PPN(k-i), attr}
			}
			frame += addr.PPN(j - i)
			i = j
		}
	}
	return svc, model, nil
}

// checks counts correctness checks made and failed.
type checks struct {
	attempted, failed int64
}

func (c *checks) check(ok bool) {
	c.attempted++
	if !ok {
		c.failed++
	}
}

// writeOK reports whether a write's error is one the closed loop
// expects: racing clients legitimately map mapped pages and unmap
// unmapped ones.
func writeOK(err error) bool {
	return err == nil || errors.Is(err, pagetable.ErrAlreadyMapped) || errors.Is(err, pagetable.ErrNotMapped)
}

// serviceOracle replays one stream through a freshly prepopulated
// service from a single client and compares every lookup, and every
// write's outcome, with a plain-map model; a final sweep compares every
// snapshot page.
func serviceOracle(snap trace.ProcessSnapshot, seed uint64, ops int) (checks, error) {
	var c checks
	svc, model, err := newServing(snap)
	if err != nil {
		return c, err
	}
	lookup := func(vpn addr.VPN) {
		e, ok := svc.Lookup(addr.VAOf(vpn))
		want, mapped := model[vpn]
		c.check(ok == mapped && (!ok || e.PPN == want.ppn && e.Attr == want.attr))
	}
	stream := trace.NewOpStream(snap, trace.DeriveSeed(seed, "service/oracle"), trace.DefaultOpMix)
	for i := 0; i < ops; i++ {
		op := stream.Next()
		_, mapped := model[op.VPN]
		switch op.Kind {
		case trace.OpLookup:
			lookup(op.VPN)
		case trace.OpMap:
			err := svc.Map(op.VPN, op.PPN, op.Attr)
			c.check(mapped && errors.Is(err, pagetable.ErrAlreadyMapped) || !mapped && err == nil)
			if !mapped {
				model[op.VPN] = mapping{op.PPN, op.Attr}
			}
		case trace.OpUnmap:
			err := svc.Unmap(op.VPN)
			c.check(mapped && err == nil || !mapped && errors.Is(err, pagetable.ErrNotMapped))
			delete(model, op.VPN)
		case trace.OpProtect:
			c.check(svc.Protect(op.Range(), op.Set, op.Clear) == nil)
			op.Range().Pages(func(vpn addr.VPN) bool {
				if m, ok := model[vpn]; ok {
					m.attr = m.attr&^op.Clear | op.Set
					model[vpn] = m
				}
				return true
			})
		}
	}
	for _, vpn := range snap.AllPages() {
		lookup(vpn)
	}
	return c, nil
}

// serviceAudit compares, once traffic has stopped, the service's answer
// for every snapshot page with a direct walk of the table it wraps: a
// stale translation-cache entry shows up here.
func serviceAudit(svc *service.Service, snap trace.ProcessSnapshot) checks {
	var c checks
	for _, vpn := range snap.AllPages() {
		va := addr.VAOf(vpn)
		got, ok := svc.Lookup(va)
		want, _, wantOK := svc.Table().Lookup(va)
		c.check(ok == wantOK && (!ok || got.PPN == want.PPN && got.Attr == want.Attr))
	}
	return c
}

// serviceWindows is how many windows each client cuts its measured
// time into. The service's wall_s and latency percentiles are medians
// over windows, so a burst of interference from outside the process
// moves only the windows it lands in.
const serviceWindows = 50

// window is one client's slice of the measured time.
type window struct {
	wall     time.Duration
	ops      int64
	p50, p90 float64
}

// clientStats is what one closed-loop client measured.
type clientStats struct {
	lookups, writes Hist
	ops             int64
	windows         []window
	checks          checks
}

// Phases of a closed-loop run.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// loadResult is one closed-loop run's outcome.
type loadResult struct {
	clients  []*clientStats
	measured time.Duration
	cpu      time.Duration
}

// runLoad drives the service with one goroutine per stream for warm,
// then measures for dur. Only requests issued inside the measured
// window are recorded; every write's error is checked throughout.
func runLoad(svc *service.Service, streams []*trace.OpStream, warm, dur time.Duration) loadResult {
	var phase atomic.Int32
	res := loadResult{clients: make([]*clientStats, len(streams))}
	var wg sync.WaitGroup
	for i, s := range streams {
		cs := &clientStats{}
		res.clients[i] = cs
		wg.Add(1)
		go func() {
			defer wg.Done()
			runClient(svc, s, &phase, dur/serviceWindows, cs)
		}()
	}
	time.Sleep(warm)
	cpu0 := cpuTime()
	start := time.Now()
	phase.Store(phaseMeasure)
	time.Sleep(dur)
	phase.Store(phaseStop)
	res.measured = time.Since(start)
	res.cpu = cpuTime() - cpu0
	wg.Wait()
	return res
}

func runClient(svc *service.Service, s *trace.OpStream, phase *atomic.Int32, span time.Duration, cs *clientStats) {
	var cur Hist
	var winStart time.Time
	var winOps int64
	for {
		ph := phase.Load()
		if ph == phaseStop {
			return
		}
		op := s.Next()
		t0 := time.Now()
		var err error
		switch op.Kind {
		case trace.OpLookup:
			svc.Lookup(addr.VAOf(op.VPN))
		case trace.OpMap:
			err = svc.Map(op.VPN, op.PPN, op.Attr)
		case trace.OpUnmap:
			err = svc.Unmap(op.VPN)
		case trace.OpProtect:
			err = svc.Protect(op.Range(), op.Set, op.Clear)
		}
		d := time.Since(t0)
		if op.Kind != trace.OpLookup {
			cs.checks.check(writeOK(err))
		}
		if ph != phaseMeasure {
			continue
		}
		if op.Kind == trace.OpLookup {
			cs.lookups.Record(int64(d))
		} else {
			cs.writes.Record(int64(d))
		}
		cs.ops++
		if winOps == 0 {
			winStart = t0
		}
		cur.Record(int64(d))
		winOps++
		if el := t0.Add(d).Sub(winStart); el >= span {
			cs.windows = append(cs.windows, window{el, winOps, cur.Quantile(0.50), cur.Quantile(0.90)})
			cur, winOps = Hist{}, 0
		}
	}
}

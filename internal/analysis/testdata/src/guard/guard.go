// Package guard is the guardedby fixture: //ptlint:guardedby
// annotations with locked, unlocked, suppressed, striped-helper,
// deferred, go-statement, and one-level-indirect access shapes.
package guard

import "sync"

type Counter struct {
	mu sync.Mutex
	n  int //ptlint:guardedby mu
}

func (c *Counter) Inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *Counter) Get() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *Counter) Racy() int {
	return c.n // want:guardedby accessed without holding c.mu
}

func (c *Counter) RacyWrite(v int) {
	c.n = v // want:guardedby accessed without holding c.mu
}

func (c *Counter) UnlockedAfter() int {
	c.mu.Lock()
	c.mu.Unlock()
	return c.n // want:guardedby accessed without holding c.mu
}

func (c *Counter) Snapshot() int {
	//ptlint:allow guardedby post-quiesce read in a single-threaded test helper
	return c.n
}

// bump accesses c.n without locking, but every call site in the
// package holds c.mu, so the one-level-indirect entry assumption
// covers it.
func (c *Counter) bump(d int) {
	c.n += d
}

func (c *Counter) AddTwice(d int) {
	c.mu.Lock()
	c.bump(d)
	c.bump(d)
	c.mu.Unlock()
}

// leak is called both with and without the lock held, so the entry
// assumption fails and its unlocked access is flagged.
func (c *Counter) leak() int {
	return c.n // want:guardedby accessed without holding c.mu
}

func (c *Counter) LockedCaller() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leak()
}

func (c *Counter) UnlockedCaller() int {
	return c.leak()
}

// Async hands the field to a goroutine that does not reacquire the
// lock: the go-launched closure starts with an empty held set.
func (c *Counter) Async() {
	c.mu.Lock()
	go func() {
		c.n++ // want:guardedby accessed without holding c.mu
	}()
	c.mu.Unlock()
}

// ClosureUnderLock runs synchronously while the lock is held: fine.
func (c *Counter) ClosureUnderLock(f func(func())) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f(func() {
		c.n++
	})
}

// --- striped locks ---

type stripe struct {
	mu sync.RWMutex
}

type Striped struct {
	stripes [8]stripe
	table   map[uint64]uint64 //ptlint:guardedby stripes[*].mu
}

// lockFor is the lock-returning helper pattern: every return yields
// &s.stripes[...].mu, so a lock bound through it canonicalizes to
// s.stripes[*].mu.
func (s *Striped) lockFor(k uint64) *sync.RWMutex {
	return &s.stripes[k%8].mu
}

func (s *Striped) Put(k, v uint64) {
	mu := s.lockFor(k)
	mu.Lock()
	s.table[k] = v
	mu.Unlock()
}

func (s *Striped) ReadSide(k uint64) uint64 {
	s.stripes[k%8].mu.RLock()
	defer s.stripes[k%8].mu.RUnlock()
	return s.table[k]
}

func (s *Striped) BadPut(k, v uint64) {
	s.table[k] = v // want:guardedby accessed without holding s.stripes[*].mu
}

// ResetAll locks every stripe in a loop; the loop body cannot escape
// early, so the held set propagates past it.
func (s *Striped) ResetAll() {
	for i := range s.stripes {
		s.stripes[i].mu.Lock()
	}
	s.table = map[uint64]uint64{}
	for i := range s.stripes {
		s.stripes[i].mu.Unlock()
	}
}

// --- shared model wrapper: one mutex serializes a stateful model ---

// model mutates replacement state on reads as well as writes, so the
// wrapper below annotates the pointer itself: even a probe that only
// "reads" the model must hold the mutex.
type model struct{ ticks int }

func (m *model) probe() int { m.ticks++; return m.ticks }

type SharedModel struct {
	mu sync.Mutex
	m  *model //ptlint:guardedby mu
}

func (s *SharedModel) Access() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.probe()
}

func (s *SharedModel) Shootdown() {
	s.mu.Lock()
	s.m = &model{}
	s.mu.Unlock()
}

func (s *SharedModel) RacyProbe() int {
	return s.m.probe() // want:guardedby accessed without holding s.mu
}

// --- annotation validation ---

type Bad struct {
	mu sync.Mutex
	v  int //ptlint:guardedby nosuch // want:guardedby no field nosuch
}

// Package trace generates the synthetic workloads that stand in for the
// paper's ten programs (Table 1). The paper drove its simulators with
// real SPEC92/SPLASH/NAS executions on Solaris 2.1; this package supplies
// the two artifacts those simulations actually consumed:
//
//   - a snapshot of each process's mapped virtual pages near maximum
//     memory use (what the page-table size experiments, Figures 9 and 10,
//     are computed from), and
//   - a reference trace whose locality structure drives the TLB
//     simulations (Table 1 and Figure 11).
//
// Each profile is calibrated to Table 1: the mapped footprint matches the
// "Memory for Hashed page table" column (bytes / 24 = populated base
// pages), the region structure matches the workload's character (dense
// numeric arrays, pointer-heavy heaps, sparse multi-process), and the
// access pattern mix is chosen so relative TLB behaviour across
// workloads follows the paper's ordering. Absolute counts are scaled —
// the traces are millions, not billions, of references. DESIGN.md §1
// documents the substitution.
package trace

// RNG is a splitmix64 pseudo-random generator: tiny, fast and
// deterministic across platforms, so snapshots and traces are
// reproducible from their seeds.
type RNG struct {
	state uint64
}

// NewRNG seeds a generator.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("trace: Intn on non-positive bound")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform value in [0, n).
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("trace: Uint64n(0)")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// DeriveSeed derives an independent stream seed from a base seed and a
// cell key, so concurrent experiment cells draw from disjoint
// pseudo-random streams no matter what order a scheduler runs them in.
// The key is hashed with FNV-1a and the combination is pushed through
// the splitmix64 finalizer — the same mixer RNG uses — so related keys
// ("table1/gcc", "table1/ML") land far apart. The result is a pure
// function of (base, key): stable across runs, platforms and worker
// counts. It is never zero, because several simulator configs treat a
// zero seed as "use the default".
func DeriveSeed(base uint64, key string) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime
	}
	z := base ^ h
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = fnvOffset
	}
	return z
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

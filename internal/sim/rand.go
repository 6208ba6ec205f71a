package sim

// Rand is a small, deterministic pseudo-random generator (xorshift64*) used
// by workload generators. It is not math/rand so that streams are stable
// across Go releases and trivially seedable per component.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed (zero is remapped to a fixed
// non-zero constant, since xorshift cannot hold state zero).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{state: seed}
}

// SplitSeed derives a per-component seed from one root seed and a component
// label (FNV-1a over the label folded into the root, finalized with a
// splitmix64 round). Every probabilistic model in the machine seeds its RNG
// from the same root this way, so an entire run — including fault injection —
// is reproducible from the single seed printed in failure output.
func SplitSeed(root uint64, label string) uint64 {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	z := root ^ h
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a pseudo-random int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

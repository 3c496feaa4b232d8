package stats

import (
	"math/rand"
	randv2 "math/rand/v2"
)

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche mix
// whose output stream passes BigCrush. It is the standard way to
// derive independent generator seeds from correlated inputs (seed,
// seed+1, seed^hash, …), and the one derivation Stream and Fork share,
// so sibling streams are statistically non-overlapping.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// derive mixes a label into a seed: SplitMix64 of the seed xor the
// mixed 64-bit FNV-1a hash of the label.
func derive(seed int64, label string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return splitmix64(uint64(seed) ^ splitmix64(h))
}

// pcgSource adapts math/rand/v2's PCG (16 bytes of state) to
// math/rand's Source64, so every stream keeps the *rand.Rand API
// without carrying the 4.9 KB table of rand.NewSource.
type pcgSource struct{ pcg randv2.PCG }

func (s *pcgSource) Uint64() uint64 { return s.pcg.Uint64() }

func (s *pcgSource) Int63() int64 { return int64(s.pcg.Uint64() & (1<<63 - 1)) }

func (s *pcgSource) Seed(seed int64) {
	s.pcg.Seed(uint64(seed), splitmix64(uint64(seed)))
}

// RNG derives independent, reproducible random streams from a single
// experiment seed. Each simulator component asks for a stream by name
// ("machine/42/noise", "workload/websearch"), so adding a component
// never perturbs the random sequence another component sees — a
// property the experiment harness relies on for stable regressions.
type RNG struct {
	seed int64
}

// NewRNG creates a stream factory rooted at seed.
func NewRNG(seed int64) *RNG { return &RNG{seed: seed} }

// Seed returns the root seed.
func (r *RNG) Seed() int64 { return r.seed }

// stream is a generator and its source in one allocation: 48 bytes of
// rand.Rand and 16 of PCG state.
type stream struct {
	rand.Rand
	src pcgSource
}

// Stream returns a new *rand.Rand whose sequence is a pure function of
// (root seed, name). Calling it twice with the same name yields two
// generators producing identical sequences.
func (r *RNG) Stream(name string) *rand.Rand {
	s := &stream{}
	s.src.Seed(int64(derive(r.seed, name)))
	s.Rand = *rand.New(&s.src)
	return &s.Rand
}

// Fork returns a child factory whose seed is derived from the parent
// seed and the label exactly as a stream's is. It is the splittable-
// substream primitive the parallel cluster step relies on: each
// machine (and each task workload) forks its own factory up front,
// every stream is a pure function of (root seed, label path), and
// sibling streams do not overlap — so ticking machines concurrently
// cannot perturb any stream's sequence.
func (r *RNG) Fork(label string) *RNG {
	return &RNG{seed: int64(derive(r.seed, label))}
}

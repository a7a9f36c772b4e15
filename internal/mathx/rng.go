// Package mathx provides the numerical substrate shared by every other
// package in the repository: deterministic pseudo-random number
// generation, probability distributions and their tails, descriptive
// statistics, histograms, and small linear-algebra helpers used by the
// spatial-correlation machinery.
//
// Everything in this package is deterministic given a seed. Experiments
// throughout the repository derive child seeds with Split so that adding
// a new consumer of randomness never perturbs existing streams.
package mathx

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random source. It wraps math/rand with
// convenience samplers and a stable stream-splitting scheme.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Split derives an independent child generator identified by id.
// Children with distinct ids produce decorrelated streams, and the
// mapping (seed, id) -> stream is stable across runs.
func (g *RNG) Split(id int64) *RNG {
	return NewRNG(SplitSeed(g.r.Int63(), id))
}

// Reseed restarts g's stream exactly as NewRNG(seed) would start it,
// reusing g's ~5 KB source state instead of allocating a new one. Hot
// Monte-Carlo paths keep one generator and reseed it per sub-stream:
// g.Split(id) is the same stream as Reseed(SplitSeed(g.Int63(), id)).
func (g *RNG) Reseed(seed int64) { g.r.Seed(seed) }

// SplitSeed returns a derived seed without constructing a generator.
func SplitSeed(seed, id int64) int64 {
	// SplitMix64-style avalanche of the pair keeps child streams
	// decorrelated even for adjacent ids.
	z := uint64(seed) ^ (uint64(id) * 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z & math.MaxInt64)
}

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Normal returns a sample from N(mu, sigma^2).
func (g *RNG) Normal(mu, sigma float64) float64 {
	return mu + sigma*g.r.NormFloat64()
}

// StdNormal returns a sample from N(0, 1).
func (g *RNG) StdNormal() float64 { return g.r.NormFloat64() }

// LogNormal returns a sample whose logarithm is N(mu, sigma^2).
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(g.Normal(mu, sigma))
}

// Uniform returns a uniform sample in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Perm returns a pseudo-random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool { return g.r.Float64() < p }

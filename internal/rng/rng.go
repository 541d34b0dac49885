// Package rng provides a small, deterministic pseudo-random number
// generator used throughout the repository.
//
// Reproducibility is a first-class requirement for this code base: every
// Monte-Carlo experiment (device populations, measurement noise, attack
// transcripts) must be replayable from a single 64-bit seed so that the
// experiment tables and figures can be regenerated bit-for-bit.
// The standard library's math/rand is seedable too, but its generator and
// stream-splitting behaviour are not guaranteed stable across Go releases;
// this package pins the algorithm.
//
// The core generator is xoshiro256**, seeded through SplitMix64, following
// the reference constructions by Blackman and Vigna. Gaussian variates use
// the Marsaglia polar method.
package rng

import "math"

// Source is a deterministic 64-bit pseudo-random source.
//
// It is intentionally NOT safe for concurrent use; callers that need
// parallel streams should derive independent child sources with Split,
// which consumes state from the parent in a deterministic way.
type Source struct {
	s [4]uint64
	// cached spare Gaussian variate from the polar method
	spare    float64
	hasSpare bool
}

// splitMix64 advances the given state and returns the next SplitMix64
// output. It is used only for seeding.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded deterministically from seed.
func New(seed uint64) *Source {
	var r Source
	r.Reseed(seed)
	return &r
}

// Reseed resets the source to the state derived from seed, discarding any
// cached Gaussian spare.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro256** requires a nonzero state; SplitMix64 outputs are zero
	// with negligible probability, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	r.hasSpare = false
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split returns a new Source whose stream is statistically independent of
// the parent's subsequent output. The parent is advanced.
func (r *Source) Split() *Source {
	return New(r.Uint64())
}

// StreamSeed derives the seed of logical stream `stream` under a campaign
// base seed. Unlike Split it carries no hidden state: stream i's seed
// depends only on (base, i), so a pool of workers can evaluate streams in
// any order — or any degree of parallelism — and still reproduce the
// exact per-stream random sequences of a serial run. The derivation is
// one SplitMix64 step over a golden-ratio spaced state, the same
// construction New uses for state expansion.
func StreamSeed(base, stream uint64) uint64 {
	state := base + (stream+1)*0x9e3779b97f4a7c15
	return splitMix64(&state)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling with rejection to
	// remove modulo bias.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair coin flip.
func (r *Source) Bool() bool {
	return r.Uint64()&1 == 1
}

// Norm returns a standard Gaussian variate (mean 0, standard deviation 1)
// via the Marsaglia polar method, caching the spare.
func (r *Source) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}

// NormScaled returns a Gaussian variate with the given mean and standard
// deviation.
func (r *Source) NormScaled(mean, stddev float64) float64 {
	return mean + stddev*r.Norm()
}

// Perm fills p with a uniformly random permutation of [0, len(p)),
// generated with the Fisher-Yates shuffle; a caller drawing many
// permutations of one length reuses one buffer.
func (r *Source) Perm(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle permutes the first n elements using swap, Fisher-Yates style.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

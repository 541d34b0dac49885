package rng

import "math"

// Counter-mode ("block") generation. Every output is a pure function of
// a key and a pair of counters — no sequential stream state at all — so
// consumers can evaluate any subset of a logical random field, in any
// order, from any goroutine, and still reproduce exactly the values a
// full in-order evaluation would have produced. The silicon noise model
// uses it to key one Gaussian variate per (noise seed, measurement
// sweep, oscillator index) triple: subset measurement then draws only
// the variates it needs instead of replaying a stream position by
// position.
//
// The construction is two chained SplitMix64 steps (golden-ratio offset
// plus the Stafford/SplitMix64 finalizer) — the same primitive New uses
// for state expansion, here applied as a tiny counter block cipher.
// Each step is a bijection of the 64-bit state for any fixed input, so
// distinct (ctr, idx) pairs under one key never collide trivially, and
// SplitMix64's avalanche quality carries over.

// blockGolden is the golden-ratio increment of SplitMix64.
const blockGolden = 0x9e3779b97f4a7c15

// blockMix is the SplitMix64 output finalizer (Stafford mix13): a
// bijective avalanche over 64 bits.
func blockMix(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// BlockSweep is the precomputed key half of one (key, ctr) sweep: the
// first chaining step of the counter block is loop-invariant across a
// whole measurement sweep, so bulk fills hoist it once instead of
// re-mixing key and counter for every oscillator.
type BlockSweep uint64

// NewBlockSweep folds (key, ctr) into the per-sweep chaining state.
// The key is mixed on its own before the counter is folded in: a single
// additive fold would alias (key, ctr) with (key+d, ctr-d), making
// oracles keyed by sequential seeds emit each other's sweeps shifted by
// one — exactly the correlated-noise hazard counter mode exists to rule
// out. The extra mix runs once per sweep, not per variate.
func NewBlockSweep(key, ctr uint64) BlockSweep {
	return BlockSweep(blockMix(blockMix(key+blockGolden) + blockGolden + ctr))
}

// BlockNormPair returns the two standard Gaussian variates of counter
// block (key, ctr, blk) via the Marsaglia polar method — the same
// transform (and the same per-variate cost) as the sequential stream's
// Source.Norm, but drawing its uniforms from a splitmix chain seeded
// by the block address instead of a shared stream. The rejection
// retries stay inside the block's own chain, so the result is a pure
// function of (key, ctr, blk) no matter how many attempts it takes.
func BlockNormPair(key, ctr, blk uint64) (z0, z1 float64) {
	return NewBlockSweep(key, ctr).NormPair(blk)
}

// NormPair is BlockNormPair against the sweep's precomputed state.
func (s BlockSweep) NormPair(blk uint64) (z0, z1 float64) {
	w := blockMix(uint64(s) + blockGolden + blk)
	for {
		u := float64(w>>11)*(2.0/(1<<53)) - 1
		w = blockMix(w + blockGolden)
		v := float64(w>>11)*(2.0/(1<<53)) - 1
		w = blockMix(w + blockGolden)
		r2 := u*u + v*v
		if r2 >= 1 || r2 == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(r2) / r2)
		return u * f, v * f
	}
}

// NormMax bounds every variate of the counter-mode sampler: |z| <
// NormMax for each value NormPair, Norm and FillNorm return. The
// uniforms are u = k·2⁻⁵² − 1 for a 53-bit integer k, so u and v are
// exact multiples of 2⁻⁵² and an accepted r2 = u² + v² is at least
// 2⁻¹⁰⁴. With u² ≤ r2, |z| = |u|·√(−2 ln r2 / r2) ≤ √(−2 ln r2) ≤
// √(208 ln 2) ≈ 12.00714, and the few roundings of the transform move
// that by a few ulps, far inside the 12.01 margin. silicon.Readout
// relies on the bound to prove that noise cannot change a comparison,
// so a change of sampler must move this constant together with its
// test (TestNormMaxBoundsPolar).
const NormMax = 12.01

// FillNorm writes the sweep's variates for indices [0, len(dst)) into
// dst — the whole-array measurement fast path. It is exactly equivalent
// to calling Norm(i) for every i, with the polar transform inlined and
// one block shared per even/odd index pair, so a dense counter-mode
// sweep costs the same per variate as the sequential polar stream.
func (s BlockSweep) FillNorm(dst []float64) {
	i := 0
	for ; i+1 < len(dst); i += 2 {
		w := blockMix(uint64(s) + blockGolden + uint64(i)>>1)
		for {
			u := float64(w>>11)*(2.0/(1<<53)) - 1
			w = blockMix(w + blockGolden)
			v := float64(w>>11)*(2.0/(1<<53)) - 1
			w = blockMix(w + blockGolden)
			r2 := u*u + v*v
			if r2 >= 1 || r2 == 0 {
				continue
			}
			f := math.Sqrt(-2 * math.Log(r2) / r2)
			dst[i], dst[i+1] = u*f, v*f
			break
		}
	}
	if i < len(dst) {
		dst[i] = s.Norm(uint64(i))
	}
}

// BlockNorm returns the standard Gaussian variate keyed by (key, ctr,
// idx): element idx of the infinite Gaussian field addressed by (ctr,
// idx). Adjacent even/odd indices share a polar block; callers filling
// runs of indices should use BlockNormPair directly to get both halves
// for one transform.
func BlockNorm(key, ctr, idx uint64) float64 {
	return NewBlockSweep(key, ctr).Norm(idx)
}

// Norm is BlockNorm against the sweep's precomputed state.
func (s BlockSweep) Norm(idx uint64) float64 {
	z0, z1 := s.NormPair(idx >> 1)
	if idx&1 == 0 {
		return z0
	}
	return z1
}

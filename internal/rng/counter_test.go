package rng

import (
	"math"
	"testing"
)

// TestBlockNormPure pins the counter contract: every variate is a pure
// function of (key, ctr, idx) — recomputable in any order, from any
// starting point, with no stream state.
func TestBlockNormPure(t *testing.T) {
	ref := make(map[[3]uint64]float64)
	for ctr := uint64(0); ctr < 8; ctr++ {
		for idx := uint64(0); idx < 64; idx++ {
			ref[[3]uint64{7, ctr, idx}] = BlockNorm(7, ctr, idx)
		}
	}
	// Re-evaluate in reverse order and through the sweep handle.
	for ctr := uint64(7); ctr < 8; ctr-- {
		sw := NewBlockSweep(7, ctr)
		for idx := uint64(63); idx < 64; idx-- {
			if got := BlockNorm(7, ctr, idx); got != ref[[3]uint64{7, ctr, idx}] {
				t.Fatalf("BlockNorm(7,%d,%d) not reproducible", ctr, idx)
			}
			if got := sw.Norm(idx); got != ref[[3]uint64{7, ctr, idx}] {
				t.Fatalf("sweep Norm(%d,%d) diverges from BlockNorm", ctr, idx)
			}
		}
	}
}

// TestBlockNormPairHalves ties BlockNorm to the pairwise transform: the
// even and odd indices of one block are exactly the two polar outputs.
func TestBlockNormPairHalves(t *testing.T) {
	for blk := uint64(0); blk < 128; blk++ {
		z0, z1 := NewBlockSweep(3, 5).NormPair(blk)
		if got := BlockNorm(3, 5, 2*blk); got != z0 {
			t.Fatalf("block %d even half mismatch", blk)
		}
		if got := BlockNorm(3, 5, 2*blk+1); got != z1 {
			t.Fatalf("block %d odd half mismatch", blk)
		}
	}
}

// TestBlockSweepFillNormMatchesScalar pins the dense bulk fill to the
// scalar Norm definition over even and odd lengths, so a whole-array
// sweep and a sparse per-index evaluation of the same (key, ctr) agree
// bit for bit.
func TestBlockSweepFillNormMatchesScalar(t *testing.T) {
	for _, key := range []uint64{11, 0xdeadbeef} {
		for _, ctr := range []uint64{0, 4} {
			sw := NewBlockSweep(key, ctr)
			for _, n := range []int{0, 1, 2, 3, 7, 64, 129} {
				dst := make([]float64, n)
				sw.FillNorm(dst)
				for i, got := range dst {
					if want := sw.Norm(uint64(i)); got != want {
						t.Fatalf("key=%d ctr=%d n=%d: FillNorm[%d] = %v, Norm = %v", key, ctr, n, i, got, want)
					}
				}
			}
		}
	}
}

// TestBlockNormKeySeparation checks that distinct keys and counters give
// distinct variates (fork independence at the primitive level).
func TestBlockNormKeySeparation(t *testing.T) {
	same := 0
	for idx := uint64(0); idx < 256; idx++ {
		if BlockNorm(1, 0, idx) == BlockNorm(2, 0, idx) {
			same++
		}
		if BlockNorm(1, 0, idx) == BlockNorm(1, 1, idx) {
			same++
		}
		// The diagonal hazard of an additive key/counter fold: nearby
		// keys must NOT reproduce each other's sweeps shifted by one.
		if BlockNorm(1, 1, idx) == BlockNorm(2, 0, idx) {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("%d collisions between distinct (key, ctr) streams", same)
	}
}

// TestBlockNormMoments sanity-checks the marginal distribution against
// the sequential polar stream: both must look standard normal, and the
// counter generator's moments must sit within Monte-Carlo range of the
// stream generator's on equal sample counts.
func TestBlockNormMoments(t *testing.T) {
	const n = 200000
	moments := func(next func() float64) (mean, variance, tail float64) {
		var s, s2 float64
		tails := 0
		for i := 0; i < n; i++ {
			z := next()
			s += z
			s2 += z * z
			if math.Abs(z) > 2 {
				tails++
			}
		}
		mean = s / n
		variance = s2/n - mean*mean
		return mean, variance, float64(tails) / n
	}
	idx := uint64(0)
	cMean, cVar, cTail := moments(func() float64 {
		idx++
		return BlockNorm(99, idx>>8, idx&0xff)
	})
	src := New(99)
	sMean, sVar, sTail := moments(src.Norm)

	if math.Abs(cMean) > 0.01 || math.Abs(cVar-1) > 0.02 {
		t.Fatalf("counter moments off: mean %v var %v", cMean, cVar)
	}
	// |z| > 2 has probability ~0.0455 for a standard normal.
	if math.Abs(cTail-0.0455) > 0.005 {
		t.Fatalf("counter tail fraction %v, want ~0.0455", cTail)
	}
	if math.Abs(cMean-sMean) > 0.02 || math.Abs(cVar-sVar) > 0.03 || math.Abs(cTail-sTail) > 0.006 {
		t.Fatalf("counter vs stream moments diverge: (%v,%v,%v) vs (%v,%v,%v)",
			cMean, cVar, cTail, sMean, sVar, sTail)
	}
}

func BenchmarkBlockSweepFillNorm(b *testing.B) {
	dst := make([]float64, 128)
	for i := 0; i < b.N; i++ {
		NewBlockSweep(1, uint64(i)).FillNorm(dst)
	}
}

// TestNormMaxBoundsPolar checks rng.NormMax at the extreme accepted
// inputs of the polar transform, evaluated with exactly the arithmetic
// of BlockSweep.NormPair: the smallest r2 (|u| = 2⁻⁵², v = 0) and the
// smallest r2 with both uniforms nonzero (|u| = |v| = 2⁻⁵²). It also
// pins the margin of the constant over the analytic bound √(208 ln 2).
func TestNormMaxBoundsPolar(t *testing.T) {
	const ulp = 1.0 / (1 << 52)
	for _, in := range [][2]float64{
		{ulp, 0}, {-ulp, 0}, {0, ulp}, {0, -ulp},
		{ulp, ulp}, {-ulp, ulp}, {ulp, -ulp}, {-ulp, -ulp},
	} {
		u, v := in[0], in[1]
		r2 := u*u + v*v
		if r2 >= 1 || r2 == 0 {
			t.Fatalf("(%g, %g) is not an accepted pair", u, v)
		}
		f := math.Sqrt(-2 * math.Log(r2) / r2)
		z0, z1 := u*f, v*f
		if math.Abs(z0) >= NormMax || math.Abs(z1) >= NormMax {
			t.Fatalf("polar(%g, %g) = (%v, %v) reaches NormMax %v", u, v, z0, z1, NormMax)
		}
	}
	if margin := NormMax - math.Sqrt(208*math.Ln2); margin <= 1e-3 {
		t.Fatalf("NormMax %v is only %g above sqrt(208 ln 2)", NormMax, margin)
	}
}

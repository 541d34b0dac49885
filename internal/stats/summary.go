package stats

import "math"

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Stddev returns the sample standard deviation of xs (Bessel-corrected;
// 0 for fewer than two observations). It stays exported as the batch
// reference for the Welford tests here and in the campaign package.
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, v := range xs {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// WilsonInterval returns the Wilson score confidence interval for a
// binomial proportion with `successes` out of `n` trials at the given
// confidence level (e.g. 0.95). Unlike the Wald interval it behaves
// sensibly at the boundary rates the attack campaigns produce (success
// fractions of exactly 0 or 1 over few seeds). n <= 0 returns (0, 1).
func WilsonInterval(successes, n int, confidence float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	if confidence <= 0 || confidence >= 1 {
		confidence = 0.95
	}
	z := NormalQuantile(1 - (1-confidence)/2)
	nf := float64(n)
	p := float64(successes) / nf
	z2 := z * z
	denom := 1 + z2/nf
	center := (p + z2/(2*nf)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf))
	lo, hi = center-half, center+half
	// Exact boundary proportions have exact one-sided bounds; also guards
	// the subtraction above from leaving ±1e-17 residue.
	if successes == 0 || lo < 0 {
		lo = 0
	}
	if successes == n || hi > 1 {
		hi = 1
	}
	return lo, hi
}

// Package stats implements the statistical machinery behind the paper's
// attack framework (Section VI, Figure 5): binomial error models for the
// error count at the ECC input, failure-rate estimation, fixed-sample and
// sequential hypothesis tests, and histogram utilities for reproducing
// the PDFs of Figure 5.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// BinomialPMF returns P(X = k) for X ~ Binomial(n, p). Computation is in
// log space to stay stable for large n.
func BinomialPMF(n int, p float64, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	logPMF := logChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p)
	return math.Exp(logPMF)
}

// BinomialCDF returns P(X <= k).
func BinomialCDF(n int, p float64, k int) float64 {
	if k < 0 {
		return 0
	}
	if k >= n {
		return 1
	}
	var sum float64
	for i := 0; i <= k; i++ {
		sum += BinomialPMF(n, p, i)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// BinomialTail returns P(X > k) = 1 - CDF(k).
func BinomialTail(n int, p float64, k int) float64 {
	return 1 - BinomialCDF(n, p, k)
}

// logChoose returns log C(n, k) via log-gamma.
func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	return logGamma(float64(n)+1) - logGamma(float64(k)+1) - logGamma(float64(n-k)+1)
}

// logGamma is the Lanczos approximation of the log-gamma function,
// accurate to ~1e-13 for positive arguments, which is ample for binomial
// coefficients.
func logGamma(x float64) float64 {
	// Lanczos coefficients, g = 7, n = 9.
	coeffs := [...]float64{
		0.99999999999980993,
		676.5203681218851,
		-1259.1392167224028,
		771.32342877765313,
		-176.61502916214059,
		12.507343278686905,
		-0.13857109526572012,
		9.9843695780195716e-6,
		1.5056327351493116e-7,
	}
	if x < 0.5 {
		// Reflection formula.
		return math.Log(math.Pi/math.Sin(math.Pi*x)) - logGamma(1-x)
	}
	x--
	a := coeffs[0]
	t := x + 7.5
	for i := 1; i < len(coeffs); i++ {
		a += coeffs[i] / (x + float64(i))
	}
	return 0.5*math.Log(2*math.Pi) + (x+0.5)*math.Log(t) - t + math.Log(a)
}

// NormalCDF returns the standard normal CDF at z.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormalQuantile returns the z such that NormalCDF(z) = p, using the
// Acklam rational approximation refined by one Halley step. Valid for
// p in (0, 1).
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: quantile of p=%v outside (0,1)", p))
	}
	// Acklam's coefficients.
	a := [...]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [...]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := [...]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [...]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}
	const plow = 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-plow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x
}

// RequiredSamplesTwoProportions returns the per-hypothesis sample size
// needed to distinguish failure rates p0 < p1 with type-I and type-II
// error at most alpha and beta, using the classical normal-approximation
// two-proportion formula. This quantifies the paper's "exploit
// differences in key regeneration failure rate": the closer the two
// rates, the more oracle queries the attack needs.
func RequiredSamplesTwoProportions(p0, p1, alpha, beta float64) int {
	if p0 < 0 || p1 > 1 || p0 >= p1 {
		panic(fmt.Sprintf("stats: invalid proportions p0=%v p1=%v", p0, p1))
	}
	za := NormalQuantile(1 - alpha)
	zb := NormalQuantile(1 - beta)
	pbar := (p0 + p1) / 2
	num := za*math.Sqrt(2*pbar*(1-pbar)) + zb*math.Sqrt(p0*(1-p0)+p1*(1-p1))
	den := p1 - p0
	n := num * num / (den * den)
	return int(math.Ceil(n))
}

// Histogram is an integer-valued empirical distribution, used for the
// error-count PDFs of Figure 5.
type Histogram struct {
	counts map[int]int
	total  int
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[int]int)}
}

// Add records one observation of value v.
func (h *Histogram) Add(v int) {
	h.counts[v]++
	h.total++
}

// Total returns the number of observations.
func (h *Histogram) Total() int { return h.total }

// P returns the empirical probability of value v.
func (h *Histogram) P(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[v]) / float64(h.total)
}

// TailP returns the empirical probability of a value strictly greater
// than v — for error counts, the failure rate of a t-error-correcting
// code with t = v.
func (h *Histogram) TailP(v int) float64 {
	if h.total == 0 {
		return 0
	}
	n := 0
	for val, c := range h.counts {
		if val > v {
			n += c
		}
	}
	return float64(n) / float64(h.total)
}

// Mean returns the empirical mean.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var s float64
	for v, c := range h.counts {
		s += float64(v) * float64(c)
	}
	return s / float64(h.total)
}

// Support returns the observed values in increasing order.
func (h *Histogram) Support() []int {
	out := make([]int, 0, len(h.counts))
	for v := range h.counts {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// TotalVariationDistance returns the TV distance between two empirical
// distributions — the distinguishability measure for the H0/H1 PDFs of
// Figure 5 (advantage of a single-query distinguisher). The terms are
// summed in increasing value order, so the result is bit-reproducible.
func TotalVariationDistance(a, b *Histogram) float64 {
	vals := append(a.Support(), b.Support()...)
	sort.Ints(vals)
	var d float64
	for i, v := range vals {
		if i > 0 && v == vals[i-1] {
			continue
		}
		d += math.Abs(a.P(v) - b.P(v))
	}
	return d / 2
}

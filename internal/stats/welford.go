package stats

import "math"

// Welford is a streaming accumulator for count, mean, and sample
// standard deviation: the campaign layer folds every metric's values
// through one, without retaining them.
//
// Internally it keeps the running raw sum (not the running mean), so a
// sequence of Add calls yields a Mean that is bit-identical to the
// batch Mean over the same values in the same order: sum/n is computed
// the same way in both places. The second central moment is maintained
// with Welford's update (Technometrics 4(3), 1962), which keeps Stddev
// numerically stable in one pass.
//
// The zero value is an empty accumulator, ready for Add.
type Welford struct {
	n   int64
	sum float64
	m2  float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	oldMean := w.Mean()
	w.n++
	w.sum += x
	w.m2 += (x - oldMean) * (x - w.Mean())
}

// N returns the number of observations.
func (w *Welford) N() int { return int(w.n) }

// Mean returns the arithmetic mean (0 for an empty accumulator),
// computed as sum/n — the same expression as the batch Mean, so
// sequential Adds reproduce it bit for bit.
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return 0
	}
	return w.sum / float64(w.n)
}

// Stddev returns the Bessel-corrected sample standard deviation (0 for
// fewer than two observations), matching the batch Stddev convention.
func (w *Welford) Stddev() float64 {
	if w.n < 2 {
		return 0
	}
	// Guard a tiny negative residue from rounding.
	if w.m2 < 0 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n-1))
}

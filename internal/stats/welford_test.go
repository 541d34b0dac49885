package stats

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func welfordValues(n int, seed uint64) []float64 {
	src := rng.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		// Mix magnitudes so cancellation errors would show up.
		xs[i] = src.Norm()*1e3 + 7.25
	}
	return xs
}

// Sequential Adds must reproduce the batch Mean bit for bit (both are
// sum/n over the same addition order) and the batch Stddev to within
// floating-point noise.
func TestWelfordMatchesBatchAggregate(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 17, 1000} {
		xs := welfordValues(n, 42)
		var w Welford
		for _, x := range xs {
			w.Add(x)
		}
		if w.N() != n {
			t.Fatalf("n=%d: N() = %d", n, w.N())
		}
		if got, want := w.Mean(), Mean(xs); got != want {
			t.Fatalf("n=%d: Mean() = %v, batch Mean = %v (must be bit-identical)", n, got, want)
		}
		got, want := w.Stddev(), Stddev(xs)
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("n=%d: Stddev() = %v, batch Stddev = %v", n, got, want)
		}
	}
}

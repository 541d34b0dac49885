package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestReseedRestartsStream(t *testing.T) {
	r := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Reseed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("step %d: got %d want %d after reseed", i, got, first[i])
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs of 64", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n = 10
	const trials = 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d too far from %v", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestNormMoments(t *testing.T) {
	r := New(9)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("variance = %v, want ~1", variance)
	}
}

func TestNormScaled(t *testing.T) {
	r := New(13)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.NormScaled(10, 2)
	}
	if mean := sum / n; math.Abs(mean-10) > 0.05 {
		t.Errorf("mean = %v, want ~10", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	for n := 0; n <= 20; n++ {
		p := make([]int, n)
		r.Perm(p)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(23)
	const n = 5
	const trials = 50000
	counts := make([]int, n)
	p := make([]int, n)
	for i := 0; i < trials; i++ {
		p[0] = -1 // Perm must overwrite a reused buffer
		r.Perm(p)
		counts[p[0]]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("first element %d appeared %d times, want ~%v", i, c, want)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(31)
	child := parent.Split()
	// The child stream must not simply mirror the parent stream.
	same := 0
	for i := 0; i < 64; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("parent and child agree on %d of 64 outputs", same)
	}
}

func TestShuffleProperty(t *testing.T) {
	f := func(seed uint64, size uint8) bool {
		n := int(size%32) + 1
		r := New(seed)
		xs := make([]int, n)
		for i := range xs {
			xs[i] = i
		}
		r.Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		seen := make([]bool, n)
		for _, v := range xs {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoolBalance(t *testing.T) {
	r := New(41)
	trues := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool() {
			trues++
		}
	}
	if math.Abs(float64(trues)-n/2) > 5*math.Sqrt(n/4) {
		t.Errorf("Bool returned true %d of %d times", trues, n)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNorm(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Norm()
	}
}

func TestStreamSeedDeterministicAndDistinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for base := uint64(0); base < 4; base++ {
		for stream := uint64(0); stream < 256; stream++ {
			s := StreamSeed(base, stream)
			if s != StreamSeed(base, stream) {
				t.Fatal("StreamSeed is not a pure function")
			}
			if seen[s] {
				t.Fatalf("collision at base=%d stream=%d", base, stream)
			}
			seen[s] = true
		}
	}
}

func TestStreamSeedIndependentOfOrder(t *testing.T) {
	// Evaluating streams in reverse must give the same seeds — the
	// property the campaign pool relies on for worker-count invariance.
	fwd := make([]uint64, 32)
	for i := range fwd {
		fwd[i] = StreamSeed(99, uint64(i))
	}
	for i := len(fwd) - 1; i >= 0; i-- {
		if StreamSeed(99, uint64(i)) != fwd[i] {
			t.Fatalf("stream %d depends on evaluation order", i)
		}
	}
}

package silicon

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

func noiseTestArray(rows, cols int) *Array {
	return NewArray(DefaultConfig(rows, cols), rng.New(1))
}

// TestMeasureIntoWithMatchesScalar pins the dense sweep to the counter
// definition: oscillator i of sweep s reads the variate keyed by
// (noise key, s, i).
func TestMeasureIntoWithMatchesScalar(t *testing.T) {
	cfg := DefaultConfig(6, 7)
	a := NewArray(cfg, rng.New(1))
	env := Environment{TempC: 40, VoltageV: 1.15}
	nm := a.NewNoise(rng.New(99))
	dst := make([]float64, a.N())
	for sweep := uint64(0); sweep < 3; sweep++ {
		a.MeasureIntoWith(dst, env, nm)
		for i, got := range dst {
			z := rng.BlockNorm(nm.key, sweep, uint64(i))
			if want := a.TrueFreq(i, env) + cfg.NoiseSigmaMHz*z; got != want {
				t.Fatalf("sweep %d osc %d: dense %v != scalar %v", sweep, i, got, want)
			}
		}
	}
}

// TestNoiseReserve pins the deferral contract devices rely on: a
// reserved copy draws exactly the sweep the receiver would have drawn
// next, and the receiver carries on with the sweep after it, as if it
// had drawn the reserved one itself.
func TestNoiseReserve(t *testing.T) {
	a := noiseTestArray(4, 8)
	ref, nm := a.NewNoise(rng.New(5)), a.NewNoise(rng.New(5))
	want := make([][]float64, 3)
	for s := range want {
		want[s] = make([]float64, a.N())
		ref.FillAll(want[s])
	}
	nm.FillAll(make([]float64, a.N()))
	reserved := nm.Reserve()
	after := make([]float64, a.N())
	nm.FillAll(after)
	got := make([]float64, a.N())
	reserved.FillAll(got)
	for i := range got {
		if got[i] != want[1][i] || after[i] != want[2][i] {
			t.Fatalf("osc %d: reserved %v after %v, want sweeps 1 and 2: %v %v", i, got[i], after[i], want[1][i], want[2][i])
		}
	}
}

// TestMeasureSparseCounterMatchesFull pins the counter identity
// contract: a sparse sweep reproduces exactly the values a full sweep
// with the same (key, sweep counter) would produce at those indices —
// while drawing only the subset's noise.
func TestMeasureSparseCounterMatchesFull(t *testing.T) {
	a := noiseTestArray(8, 16)
	env := Environment{TempC: 40, VoltageV: 1.15}
	full, sparse := a.NewNoise(rng.New(77)), a.NewNoise(rng.New(77))
	idxs := []int{0, 1, 5, 17, 18, 19, 42, 127}
	ref := make([]float64, a.N())
	got := make([]float64, a.N())
	for round := 0; round < 5; round++ {
		a.MeasureIntoWith(ref, env, full)
		a.MeasureSparse(got, idxs, env, sparse)
		for _, i := range idxs {
			if got[i] != ref[i] {
				t.Fatalf("round %d osc %d: sparse %v != full %v", round, i, got[i], ref[i])
			}
		}
	}
}

// TestCounterSweepAdvances checks that consecutive sweeps never share
// noise and that a dedicated model reproduces any sweep from scratch
// (per-(query, index) determinism).
func TestCounterSweepAdvances(t *testing.T) {
	a := noiseTestArray(4, 8)
	env := a.Config().NominalEnv()
	nm := a.NewNoise(rng.New(5))
	sweeps := make([][]float64, 4)
	for r := range sweeps {
		sweeps[r] = a.MeasureIntoWith(make([]float64, a.N()), env, nm)
	}
	for r := 1; r < len(sweeps); r++ {
		same := 0
		for i := range sweeps[r] {
			if sweeps[r][i] == sweeps[r-1][i] {
				same++
			}
		}
		if same > 0 {
			t.Fatalf("sweeps %d and %d share %d values", r-1, r, same)
		}
	}
	// Replaying from a fresh model with the same key reproduces sweep 0
	// onward bit for bit.
	replay := a.NewNoise(rng.New(5))
	for r := range sweeps {
		got := a.MeasureIntoWith(make([]float64, a.N()), env, replay)
		for i := range got {
			if got[i] != sweeps[r][i] {
				t.Fatalf("replay sweep %d diverged at osc %d", r, i)
			}
		}
	}
}

// TestNoiseForkIndependence checks the fork contract devices rely on
// (each clone keys its noise from rng.New(forkSeed)): equal seeds give
// identical variates, different seeds give distinct variates.
func TestNoiseForkIndependence(t *testing.T) {
	a := noiseTestArray(8, 8)
	fa, fb, fc := a.NewNoise(rng.New(10)), a.NewNoise(rng.New(10)), a.NewNoise(rng.New(11))
	bufA := make([]float64, a.N())
	bufB := make([]float64, a.N())
	bufC := make([]float64, a.N())
	fa.FillAll(bufA)
	fb.FillAll(bufB)
	fc.FillAll(bufC)
	same := 0
	for i := range bufA {
		if bufA[i] != bufB[i] {
			t.Fatalf("forks with equal seeds diverge at %d", i)
		}
		if bufA[i] == bufC[i] {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("forks with different seeds share %d values", same)
	}
}

// TestMeasureAveragedIsOneScaledSweep pins the averaged measurement bit
// for bit: TrueFreq + (σ/√reps)·z, where z is the FillAll of the first
// of reps reserved sweeps; one MeasureIntoWith sweep at reps = 1; and
// the next sweep drawn after the call is start + reps.
func TestMeasureAveragedIsOneScaledSweep(t *testing.T) {
	a := noiseTestArray(8, 16)
	env := Environment{TempC: 60, VoltageV: 1.22}
	n := a.N()
	for _, reps := range []int{1, 3, 25, 64} {
		nm := a.NewNoise(rng.New(uint64(reps)))
		nm.sweep = 7
		start := *nm
		got := a.MeasureAveraged(env, nm, reps)

		first, z := start, make([]float64, n)
		first.FillAll(z)
		scale := a.Config().NoiseSigmaMHz / math.Sqrt(float64(reps))
		for i := range got {
			if want := a.TrueFreq(i, env) + scale*z[i]; got[i] != want {
				t.Fatalf("reps %d osc %d: %v != TrueFreq + (σ/√reps)·z = %v", reps, i, got[i], want)
			}
		}
		if reps == 1 {
			one := start
			ref := a.MeasureIntoWith(make([]float64, n), env, &one)
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("reps 1 osc %d: %v != one MeasureIntoWith sweep %v", i, got[i], ref[i])
				}
			}
		}

		next, want := make([]float64, n), make([]float64, n)
		nm.FillAll(next)
		after := Noise{key: start.key, sweep: start.sweep + uint64(reps)}
		after.FillAll(want)
		for i := range next {
			if next[i] != want[i] {
				t.Fatalf("reps %d: the next FillAll does not draw sweep start+reps (osc %d)", reps, i)
			}
		}
	}
}

// TestMeasureAveragedDistribution checks the averaged measurement
// against its exact law, N(TrueFreq, σ²/reps) per oscillator, over
// 2000 noise keys × 32 oscillators per cell. The sample mean of
// avg − TrueFreq must lie within 4 standard errors (σ/√(reps·m)) of 0,
// and the sample variance within 5 standard deviations of σ²/reps under
// the normal approximation of (m−1)s²/(σ²/reps) ~ χ²(m−1), i.e.
// |s²·reps/σ² − 1| ≤ 5·√(2/(m−1)) (about 2.8% at m = 64000). Scaling the
// sweep by σ (variance ratio reps) or by σ/reps (ratio 1/reps) fails
// every cell with reps > 1.
func TestMeasureAveragedDistribution(t *testing.T) {
	const keys = 2000
	for _, sigma := range []float64{0.05, 0.3, 0.5} {
		cfg := DefaultConfig(4, 8)
		cfg.NoiseSigmaMHz = sigma
		a := NewArray(cfg, rng.New(1))
		env := cfg.NominalEnv()
		truth := a.TrueFreqInto(make([]float64, a.N()), env)
		for _, reps := range []int{1, 9, 20, 25} {
			src := rng.New(uint64(1000*reps) + uint64(sigma*100))
			var sum, sumSq float64
			for k := 0; k < keys; k++ {
				avg := a.MeasureAveraged(env, a.NewNoise(src), reps)
				for i, f := range avg {
					d := f - truth[i]
					sum += d
					sumSq += d * d
				}
			}
			m := float64(keys * a.N())
			want := sigma * sigma / float64(reps)
			mean := sum / m
			variance := (sumSq - m*mean*mean) / (m - 1)
			if se := math.Sqrt(want / m); math.Abs(mean) > 4*se {
				t.Errorf("σ %v reps %d: mean error %.3g beyond 4 standard errors (%.3g)", sigma, reps, mean, 4*se)
			}
			if ratio, tol := variance/want, 5*math.Sqrt(2/(m-1)); math.Abs(ratio-1) > tol {
				t.Errorf("σ %v reps %d: variance %.4g is %.4f × σ²/reps, outside 1 ± %.4f", sigma, reps, variance, ratio, tol)
			}
		}
	}
}

// TestMeasureAveragedAllocsIndependentOfReps is the enrollment-path
// allocs fence: the result alone, whatever reps.
func TestMeasureAveragedAllocsIndependentOfReps(t *testing.T) {
	a := noiseTestArray(8, 16)
	env := a.Config().NominalEnv()
	nm := a.NewNoise(rng.New(2))
	for _, reps := range []int{1, 25} {
		if allocs := testing.AllocsPerRun(20, func() {
			a.MeasureAveraged(env, nm, reps)
		}); allocs != 1 {
			t.Fatalf("reps %d: MeasureAveraged allocates %.1f/op, want 1", reps, allocs)
		}
	}
}

// TestMeasureAveragedMoments sanity-checks the enrollment averaging:
// the per-oscillator mean over many sweeps must converge to the true
// frequency.
func TestMeasureAveragedMoments(t *testing.T) {
	a := noiseTestArray(4, 8)
	env := a.Config().NominalEnv()
	got := a.MeasureAveraged(env, a.NewNoise(rng.New(123)), 400)
	sigma := a.Config().NoiseSigmaMHz
	for i := range got {
		if diff := math.Abs(got[i] - a.TrueFreq(i, env)); diff > 4*sigma/20 {
			t.Fatalf("osc %d: averaged %v vs true %v (diff %v)", i, got[i], a.TrueFreq(i, env), diff)
		}
	}
}

// BenchmarkMeasureSparse is the sparse-vs-dense crossover: the cost of
// a sparse sweep scales with the subset size k, not the array size.
func BenchmarkMeasureSparse(b *testing.B) {
	const rows, cols = 16, 32
	for _, frac := range []int{1, 4, 8, 32} {
		var idxs []int
		for i := 0; i < rows*cols; i += frac {
			idxs = append(idxs, i)
		}
		b.Run(fmt.Sprintf("frac-1of%d", frac), func(b *testing.B) {
			a := noiseTestArray(rows, cols)
			env := a.Config().NominalEnv()
			nm := a.NewNoise(rng.New(1))
			dst := make([]float64, a.N())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.MeasureSparse(dst, idxs, env, nm)
			}
		})
	}
}

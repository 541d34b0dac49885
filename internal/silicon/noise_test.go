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
// (noise key, s, i), with and without counter quantization.
func TestMeasureIntoWithMatchesScalar(t *testing.T) {
	for _, window := range []float64{0, 2.5} {
		cfg := DefaultConfig(6, 7)
		cfg.CounterWindowUS = window
		a := NewArray(cfg, rng.New(1))
		env := Environment{TempC: 40, VoltageV: 1.15}
		nm := a.NewNoise(rng.New(99))
		dst := make([]float64, a.N())
		for sweep := uint64(0); sweep < 3; sweep++ {
			a.MeasureIntoWith(dst, env, nm)
			for i, got := range dst {
				z := rng.BlockNorm(nm.key, sweep, uint64(i))
				want := quantizeWindow(a.TrueFreq(i, env)+cfg.NoiseSigmaMHz*z, window)
				if got != want {
					t.Fatalf("window=%v sweep %d osc %d: dense %v != scalar %v", window, sweep, i, got, want)
				}
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

// TestMeasureAveragedMatchesScalar pins the enrollment averaging
// arithmetic: per oscillator, the sum of reps consecutive dense sweeps
// accumulated in sweep order, then multiplied (not divided) by 1/reps.
func TestMeasureAveragedMatchesScalar(t *testing.T) {
	a := noiseTestArray(8, 16)
	env := Environment{TempC: 60, VoltageV: 1.22}
	for _, reps := range []int{1, 3, 25, 64} {
		twin := a.NewNoise(rng.New(uint64(reps)))
		ref := make([]float64, a.N())
		sweep := make([]float64, a.N())
		for r := 0; r < reps; r++ {
			a.MeasureIntoWith(sweep, env, twin)
			for i := range ref {
				ref[i] += sweep[i]
			}
		}
		inv := 1 / float64(reps)
		for i := range ref {
			ref[i] *= inv
		}
		nm := a.NewNoise(rng.New(uint64(reps)))
		got := a.MeasureAveraged(env, nm, reps)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("reps %d osc %d: %v != reference %v", reps, i, got[i], ref[i])
			}
		}
		if nm.sweep != twin.sweep {
			t.Fatalf("reps %d: averaging consumed %d sweeps, want %d", reps, nm.sweep, twin.sweep)
		}
	}
}

// TestMeasureAveragedAllocsIndependentOfReps is the enrollment-path
// allocs fence: the result and one sweep's working space, whatever the
// number of sweeps.
func TestMeasureAveragedAllocsIndependentOfReps(t *testing.T) {
	a := noiseTestArray(8, 16)
	env := a.Config().NominalEnv()
	nm := a.NewNoise(rng.New(2))
	for _, reps := range []int{1, 25} {
		if allocs := testing.AllocsPerRun(20, func() {
			a.MeasureAveraged(env, nm, reps)
		}); allocs != 2 {
			t.Fatalf("reps %d: MeasureAveraged allocates %.1f/op, want 2", reps, allocs)
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

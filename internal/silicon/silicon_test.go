package silicon

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func testArray(seed uint64) *Array {
	return NewArray(DefaultConfig(8, 16), rng.New(seed))
}

func TestLayoutIndexing(t *testing.T) {
	a := testArray(1)
	if a.N() != 128 || a.Rows() != 8 || a.Cols() != 16 {
		t.Fatalf("layout (%d,%d,%d)", a.N(), a.Rows(), a.Cols())
	}
	for i := 0; i < a.N(); i++ {
		if a.Index(i%a.Cols(), i/a.Cols()) != i {
			t.Fatalf("Index is not row-major at %d", i)
		}
	}
	if got := a.Index(1, 1); got != 17 {
		t.Fatalf("Index(1,1) = %d, want 17 for 16 columns", got)
	}
}

func TestIndexPanicsOutside(t *testing.T) {
	a := testArray(1)
	for _, pos := range [][2]int{{-1, 0}, {16, 0}, {0, 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("(%d,%d): expected panic", pos[0], pos[1])
				}
			}()
			a.Index(pos[0], pos[1])
		}()
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{Rows: 0, Cols: 4, NominalMHz: 100},
		{Rows: 4, Cols: 4, NominalMHz: 0},
		{Rows: 4, Cols: 4, NominalMHz: 100, ProcessSigmaMHz: -1},
	}
	// Non-finite values pass every ordered comparison, so each float
	// field gets NaN and both infinities on top of a valid config.
	nan, inf := math.NaN(), math.Inf(1)
	for _, set := range []func(c *Config, v float64){
		func(c *Config, v float64) { c.NominalMHz = v },
		func(c *Config, v float64) { c.ProcessSigmaMHz = v },
		func(c *Config, v float64) { c.GradientXMHz = v },
		func(c *Config, v float64) { c.GradientYMHz = v },
		func(c *Config, v float64) { c.BowlMHz = v },
		func(c *Config, v float64) { c.NoiseSigmaMHz = v },
		func(c *Config, v float64) { c.TempCoefMeanMHzPerC = v },
		func(c *Config, v float64) { c.TempCoefSigmaMHzPerC = v },
		func(c *Config, v float64) { c.VoltCoefMHzPerV = v },
		func(c *Config, v float64) { c.ReferenceTempC = v },
		func(c *Config, v float64) { c.NominalVoltageV = v },
	} {
		for _, v := range []float64{nan, inf, -inf} {
			cfg := DefaultConfig(4, 4)
			set(&cfg, v)
			bad = append(bad, cfg)
		}
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("case %d: expected validation error for %+v", i, cfg)
		}
	}
	if err := DefaultConfig(8, 16).Validate(); err != nil {
		t.Errorf("default config: %v", err)
	}
}

func TestManufacturingReproducible(t *testing.T) {
	a := testArray(42)
	b := testArray(42)
	env := a.Config().NominalEnv()
	for i := 0; i < a.N(); i++ {
		if a.TrueFreq(i, env) != b.TrueFreq(i, env) {
			t.Fatal("same seed produced different arrays")
		}
	}
	c := testArray(43)
	diff := 0
	for i := 0; i < a.N(); i++ {
		if a.TrueFreq(i, env) != c.TrueFreq(i, env) {
			diff++
		}
	}
	if diff < a.N()/2 {
		t.Fatal("different seeds produced nearly identical arrays")
	}
}

// TestRemanufacturedMatchesNewArray pins the pool remanufacture path:
// re-drawing an existing array is bit-identical to NewArray — same
// components, same source consumption afterward — and preserves pointer
// identity when the size matches.
func TestRemanufacturedMatchesNewArray(t *testing.T) {
	cfg := DefaultConfig(8, 16)
	srcFresh, srcReuse := rng.New(5), rng.New(5)
	fresh := NewArray(cfg, srcFresh)
	prev := NewArray(cfg, rng.New(999))
	re := prev.Remanufactured(cfg, srcReuse)
	if re != prev {
		t.Fatalf("same-size Remanufactured did not reuse the receiver")
	}
	for i := 0; i < fresh.N(); i++ {
		if re.base[i] != fresh.base[i] || re.systematic[i] != fresh.systematic[i] ||
			re.random[i] != fresh.random[i] || re.tempCoef[i] != fresh.tempCoef[i] {
			t.Fatalf("osc %d: Remanufactured components diverge from NewArray", i)
		}
	}
	if a, b := srcFresh.Uint64(), srcReuse.Uint64(); a != b {
		t.Fatalf("source state diverges after remanufacture: %#x vs %#x", a, b)
	}

	// Size change and nil receiver both fall back to fresh manufacture.
	if got := re.Remanufactured(DefaultConfig(2, 2), rng.New(5)); got == re || got.N() != 4 {
		t.Fatalf("size-changing Remanufactured did not fall back to NewArray")
	}
	var nilArr *Array
	if got := nilArr.Remanufactured(cfg, rng.New(5)); got == nil || got.N() != cfg.Rows*cfg.Cols {
		t.Fatalf("nil-receiver Remanufactured did not manufacture")
	}
}

func TestFrequencyDecomposition(t *testing.T) {
	a := testArray(7)
	cfg := a.Config()
	env := cfg.NominalEnv()
	for i := 0; i < a.N(); i++ {
		want := cfg.NominalMHz + a.SystematicComponent(i) + a.RandomComponent(i)
		if got := a.TrueFreq(i, env); math.Abs(got-want) > 1e-9 {
			t.Fatalf("RO %d: freq %v, decomposition %v", i, got, want)
		}
	}
}

func TestSystematicGradientShape(t *testing.T) {
	// With only an x-gradient configured, systematic frequency must
	// increase monotonically along x and be constant along y.
	cfg := DefaultConfig(4, 10)
	cfg.GradientXMHz = 5
	cfg.GradientYMHz = 0
	cfg.BowlMHz = 0
	a := NewArray(cfg, rng.New(1))
	for y := 0; y < 4; y++ {
		for x := 1; x < 10; x++ {
			if a.SystematicComponent(a.Index(x, y)) <= a.SystematicComponent(a.Index(x-1, y)) {
				t.Fatalf("systematic not increasing at (%d,%d)", x, y)
			}
		}
	}
	for x := 0; x < 10; x++ {
		v0 := a.SystematicComponent(a.Index(x, 0))
		for y := 1; y < 4; y++ {
			if math.Abs(a.SystematicComponent(a.Index(x, y))-v0) > 1e-12 {
				t.Fatalf("systematic varies along y at x=%d", x)
			}
		}
	}
}

func TestBowlIsRadial(t *testing.T) {
	cfg := DefaultConfig(5, 5)
	cfg.GradientXMHz = 0
	cfg.GradientYMHz = 0
	cfg.BowlMHz = 2
	a := NewArray(cfg, rng.New(1))
	center := a.SystematicComponent(a.Index(2, 2))
	corner := a.SystematicComponent(a.Index(0, 0))
	if center >= corner {
		t.Fatalf("bowl: center %v >= corner %v", center, corner)
	}
	if math.Abs(corner-2) > 1e-9 {
		t.Fatalf("corner bowl value %v, want 2", corner)
	}
}

func TestRandomComponentMoments(t *testing.T) {
	cfg := DefaultConfig(32, 32)
	a := NewArray(cfg, rng.New(5))
	var sum, sumSq float64
	for i := 0; i < a.N(); i++ {
		v := a.RandomComponent(i)
		sum += v
		sumSq += v * v
	}
	n := float64(a.N())
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.3 {
		t.Errorf("random mean %v, want ~0", mean)
	}
	if math.Abs(sd-cfg.ProcessSigmaMHz) > 0.3 {
		t.Errorf("random sd %v, want ~%v", sd, cfg.ProcessSigmaMHz)
	}
}

func TestTemperatureDependence(t *testing.T) {
	a := testArray(11)
	cfg := a.Config()
	cold := Environment{TempC: -20, VoltageV: cfg.NominalVoltageV}
	hot := Environment{TempC: 80, VoltageV: cfg.NominalVoltageV}
	// Frequencies increase with decreasing temperature (paper, §III-A).
	for i := 0; i < a.N(); i++ {
		if a.TrueFreq(i, cold) <= a.TrueFreq(i, hot) {
			t.Fatalf("RO %d: cold %v <= hot %v", i, a.TrueFreq(i, cold), a.TrueFreq(i, hot))
		}
	}
}

func TestVoltageDependence(t *testing.T) {
	a := testArray(11)
	cfg := a.Config()
	low := Environment{TempC: cfg.ReferenceTempC, VoltageV: 1.0}
	high := Environment{TempC: cfg.ReferenceTempC, VoltageV: 1.4}
	// Frequencies increase with increasing supply voltage (paper, §III-A).
	for i := 0; i < a.N(); i++ {
		if a.TrueFreq(i, high) <= a.TrueFreq(i, low) {
			t.Fatal("voltage dependence inverted")
		}
	}
}

func TestLinearityInTemperature(t *testing.T) {
	// f(T) must be exactly linear: f(50) - f(25) == f(75) - f(50).
	a := testArray(13)
	v := a.Config().NominalVoltageV
	for i := 0; i < a.N(); i += 7 {
		d1 := a.TrueFreq(i, Environment{50, v}) - a.TrueFreq(i, Environment{25, v})
		d2 := a.TrueFreq(i, Environment{75, v}) - a.TrueFreq(i, Environment{50, v})
		if math.Abs(d1-d2) > 1e-9 {
			t.Fatalf("RO %d: nonlinear in T", i)
		}
	}
}

func TestMeasurementNoise(t *testing.T) {
	a := testArray(17)
	env := a.Config().NominalEnv()
	nm := a.NewNoise(rng.New(99))
	buf := make([]float64, a.N())
	const sweeps = 160
	var sum, sumSq float64
	for r := 0; r < sweeps; r++ {
		a.MeasureIntoWith(buf, env, nm)
		for i, m := range buf {
			e := m - a.TrueFreq(i, env)
			sum += e
			sumSq += e * e
		}
	}
	n := float64(sweeps * a.N())
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.005 {
		t.Errorf("noise mean %v, want ~0", mean)
	}
	if math.Abs(sd-a.Config().NoiseSigmaMHz) > 0.005 {
		t.Errorf("noise sd %v, want ~%v", sd, a.Config().NoiseSigmaMHz)
	}
}

func TestMeasureAveragedReducesNoise(t *testing.T) {
	a := testArray(19)
	env := a.Config().NominalEnv()
	nm := a.NewNoise(rng.New(1))
	single := make([]float64, a.N())
	truth := a.TrueFreq(3, env)
	var errSingle, errAvg float64
	const trials = 500
	for i := 0; i < trials; i++ {
		errSingle += math.Abs(a.MeasureIntoWith(single, env, nm)[3] - truth)
		errAvg += math.Abs(a.MeasureAveraged(env, nm, 16)[3] - truth)
	}
	if errAvg >= errSingle/2 {
		t.Fatalf("averaging did not reduce error: single %v avg %v", errSingle/trials, errAvg/trials)
	}
}

// TestCrossoverTemp checks the temperature model's linearity through
// PairDeltaF: two oscillators with different slopes swap order at the
// temperature where their linear models meet.
func TestCrossoverTemp(t *testing.T) {
	a := testArray(23)
	found := false
	for i := 0; i < a.N() && !found; i++ {
		for j := i + 1; j < a.N(); j++ {
			dSlope := a.tempCoef[i] - a.tempCoef[j]
			if math.Abs(dSlope) < 1e-12 {
				continue
			}
			tc := a.cfg.ReferenceTempC - (a.base[i]-a.base[j])/dSlope
			// At the crossover the delta must vanish.
			env := Environment{TempC: tc, VoltageV: a.Config().NominalVoltageV}
			if math.Abs(a.PairDeltaF(i, j, env)) > 1e-6 {
				t.Fatalf("pair (%d,%d): delta at crossover = %v", i, j, a.PairDeltaF(i, j, env))
			}
			// And the sign must differ on either side.
			before := a.PairDeltaF(i, j, Environment{tc - 10, a.Config().NominalVoltageV})
			after := a.PairDeltaF(i, j, Environment{tc + 10, a.Config().NominalVoltageV})
			if before*after >= 0 {
				t.Fatalf("pair (%d,%d): no sign change across crossover", i, j)
			}
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no pair with a crossover found")
	}
}

func TestPairDeltaFAntisymmetry(t *testing.T) {
	a := testArray(29)
	env := Environment{TempC: 40, VoltageV: 1.25}
	f := func(iRaw, jRaw uint8) bool {
		i := int(iRaw) % a.N()
		j := int(jRaw) % a.N()
		return math.Abs(a.PairDeltaF(i, j, env)+a.PairDeltaF(j, i, env)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkMeasureDense128(b *testing.B) {
	a := testArray(1)
	env := a.Config().NominalEnv()
	nm := a.NewNoise(rng.New(2))
	dst := make([]float64, a.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MeasureIntoWith(dst, env, nm)
	}
}

package stats

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNormalCDFKnown(t *testing.T) {
	cases := map[float64]float64{
		0:     0.5,
		1.96:  0.9750021048517795,
		-1.96: 0.0249978951482205,
		3:     0.9986501019683699,
	}
	for z, want := range cases {
		if got := NormalCDF(z); !almostEqual(got, want, 1e-9) {
			t.Errorf("NormalCDF(%v) = %v, want %v", z, got, want)
		}
	}
}

func TestNormalQuantileInvertsCDF(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.025, 0.2, 0.5, 0.8, 0.975, 0.99, 0.999} {
		z := NormalQuantile(p)
		if !almostEqual(NormalCDF(z), p, 1e-9) {
			t.Errorf("CDF(Quantile(%v)) = %v", p, NormalCDF(z))
		}
	}
}

func TestNormalQuantilePanics(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("p=%v: expected panic", p)
				}
			}()
			NormalQuantile(p)
		}()
	}
}

func TestRequiredSamplesSanity(t *testing.T) {
	// Wider gap -> fewer samples.
	narrow := RequiredSamplesTwoProportions(0.10, 0.12, 0.05, 0.05)
	wide := RequiredSamplesTwoProportions(0.10, 0.50, 0.05, 0.05)
	if wide >= narrow {
		t.Fatalf("wide gap needs %d >= narrow %d", wide, narrow)
	}
	// Stricter error -> more samples.
	strict := RequiredSamplesTwoProportions(0.1, 0.3, 0.001, 0.001)
	loose := RequiredSamplesTwoProportions(0.1, 0.3, 0.1, 0.1)
	if strict <= loose {
		t.Fatalf("strict %d <= loose %d", strict, loose)
	}
}

func TestRequiredSamplesEmpirically(t *testing.T) {
	// A fixed-sample test sized by the formula must achieve roughly the
	// designed error rates. Monte-Carlo check at alpha=beta=0.05.
	p0, p1 := 0.2, 0.4
	n := RequiredSamplesTwoProportions(p0, p1, 0.05, 0.05)
	r := rng.New(99)
	threshold := (p0 + p1) / 2
	trials := 2000
	wrong := 0
	for trial := 0; trial < trials; trial++ {
		// Simulate under H1; test decides H1 when the empirical rate
		// exceeds the midpoint.
		fails := 0
		for i := 0; i < n; i++ {
			if r.Float64() < p1 {
				fails++
			}
		}
		if float64(fails)/float64(n) <= threshold {
			wrong++
		}
	}
	if rate := float64(wrong) / float64(trials); rate > 0.08 {
		t.Fatalf("empirical beta = %v, want <= ~0.05", rate)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int{1, 2, 2, 3, 3, 3} {
		h.Add(v)
	}
	if !almostEqual(h.P(3), 0.5, 1e-12) || !almostEqual(h.P(1), 1.0/6, 1e-12) {
		t.Fatal("P wrong")
	}
	if !almostEqual(h.TailP(2), 0.5, 1e-12) {
		t.Fatalf("TailP(2) = %v", h.TailP(2))
	}
	sup := h.Support()
	if len(sup) != 3 || sup[0] != 1 || sup[2] != 3 {
		t.Fatalf("support = %v", sup)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.P(0) != 0 || h.TailP(0) != 0 {
		t.Fatal("empty histogram must return zeros")
	}
}

func TestTotalVariationDistance(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Add(0)
	b.Add(1)
	if d := TotalVariationDistance(a, b); !almostEqual(d, 1, 1e-12) {
		t.Fatalf("disjoint TV = %v", d)
	}
	c := NewHistogram()
	c.Add(0)
	if d := TotalVariationDistance(a, c); d != 0 {
		t.Fatalf("identical TV = %v", d)
	}

	// Campaign outcomes are compared bit for bit, so the sum must not
	// depend on map iteration order.
	r := rng.New(9)
	h0, h1 := NewHistogram(), NewHistogram()
	for i := 0; i < 300; i++ {
		h0.Add(r.Intn(40))
		h1.Add(r.Intn(40) + 7)
	}
	want := TotalVariationDistance(h0, h1)
	for i := 0; i < 50; i++ {
		if d := TotalVariationDistance(h0, h1); d != want {
			t.Fatalf("TV not reproducible: %v then %v", want, d)
		}
	}
}

func TestSPRTDecidesCorrectly(t *testing.T) {
	r := rng.New(42)
	p0, p1 := 0.05, 0.25
	for _, truth := range []float64{p0, p1} {
		correct := 0
		const trials = 400
		for trial := 0; trial < trials; trial++ {
			s := MakeSPRT(p0, p1, 0.01, 0.01)
			var d SPRTDecision
			for d = SPRTContinue; d == SPRTContinue; {
				d = s.Observe(r.Float64() < truth)
				if s.N() > 100000 {
					t.Fatal("SPRT did not terminate")
				}
			}
			if (truth == p0 && d == SPRTAcceptH0) || (truth == p1 && d == SPRTAcceptH1) {
				correct++
			}
		}
		if rate := float64(correct) / trials; rate < 0.97 {
			t.Fatalf("truth=%v: correct rate %v", truth, rate)
		}
	}
}

func TestSPRTCheaperThanFixedSample(t *testing.T) {
	r := rng.New(7)
	p0, p1, alpha, beta := 0.05, 0.25, 0.01, 0.01
	fixed := RequiredSamplesTwoProportions(p0, p1, alpha, beta)
	var totalN int
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		s := MakeSPRT(p0, p1, alpha, beta)
		for s.Observe(r.Float64() < p1) == SPRTContinue {
		}
		totalN += s.N()
	}
	avg := float64(totalN) / trials
	if avg >= float64(fixed) {
		t.Fatalf("SPRT average %v >= fixed-sample %d", avg, fixed)
	}
}

// TestSPRTReset pins how an SPRT is reset, as every attack arm does: an
// SPRT is a value, so running a copy leaves the fresh original untouched
// and assigning the original back starts the test over.
func TestSPRTReset(t *testing.T) {
	fresh := MakeSPRT(0.1, 0.5, 0.05, 0.05)
	s := fresh
	s.Observe(true)
	s.Observe(true)
	if s.N() != 2 || fresh.N() != 0 || fresh.Decision() != SPRTContinue {
		t.Fatal("running a copy moved the original")
	}
	s = fresh
	if s.N() != 0 || s.Decision() != SPRTContinue {
		t.Fatal("reset failed")
	}
}

func TestSPRTInvalidParams(t *testing.T) {
	cases := []func(){
		func() { MakeSPRT(0.5, 0.2, 0.05, 0.05) },
		func() { MakeSPRT(0.1, 0.2, 0, 0.05) },
		func() { MakeSPRT(0.1, 0.2, 0.05, 1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestSPRTDecisionString(t *testing.T) {
	if SPRTContinue.String() != "continue" || SPRTAcceptH0.String() != "accept-H0" || SPRTAcceptH1.String() != "accept-H1" {
		t.Fatal("String values wrong")
	}
}

// ExpectedSamples returns Wald's approximation of the expected sample
// size when the true failure rate is p (Wald, Sequential Analysis,
// 1947, ch. 3): E[N] = (L·lower + (1-L)·upper) / E[z], where E[z] is
// the mean log-likelihood increment under p and L the operating
// characteristic, the probability of accepting H0. L comes from the h
// != 0 with p·e^(h·llr1) + (1-p)·e^(h·llr0) = 1, as
// L = (e^(h·upper) - 1) / (e^(h·upper) - e^(h·lower)); at p0 and p1,
// h is 1 and -1 and L is 1-alpha and beta. At zero drift, E[z] = 0,
// the approximation diverges and it returns +Inf. It lives here,
// beside its test, until the SPRT's query-budget work gives it a
// production caller.
func (s *SPRT) ExpectedSamples(p float64) float64 {
	mean := p*s.llr1 + (1-p)*s.llr0
	if math.Abs(mean) < 1e-15 {
		return math.Inf(1)
	}
	accept := 0.0 // L, the probability of accepting H0
	if h, ok := s.waldH(p, mean); ok {
		a, b := math.Exp(h*s.upper), math.Exp(h*s.lower)
		accept = (a - 1) / (a - b)
	} else if mean < 0 {
		accept = 1 // p = 0: every observation is a success
	}
	return (accept*s.lower + (1-accept)*s.upper) / mean
}

// waldH returns the nonzero root h of p·e^(h·llr1) + (1-p)·e^(h·llr0)
// = 1, which has the sign opposite to the drift mean, by bracketing
// and bisection. ok is false at p = 0 or 1, where no root exists.
func (s *SPRT) waldH(p, mean float64) (h float64, ok bool) {
	g := func(h float64) float64 { return p*math.Exp(h*s.llr1) + (1-p)*math.Exp(h*s.llr0) - 1 }
	dir := 1.0
	if mean > 0 {
		dir = -1
	}
	// g < 0 just past 0 in direction dir and g > 0 far out.
	lo, hi := 0.0, dir
	for g(hi) <= 0 {
		if math.Abs(hi) > 1e6 {
			return 0, false
		}
		lo, hi = hi, 2*hi
	}
	for range 200 {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			break
		}
		if g(mid) <= 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, true
}

// TestSPRTExpectedSamplesWald pins ExpectedSamples to Wald's average
// sample numbers, computed by hand from E[N] = (L·ln B + (1-L)·ln A) /
// E[z] with ln A = ln((1-β)/α), ln B = ln(β/(1-α)), L = 1-α at p0 and
// β at p1: for the attacks' default test (p0 0.05, p1 0.95, α = β =
// 0.01; E[z] = ∓0.9·ln 19) and an asymmetric one. At zero drift the
// approximation diverges.
func TestSPRTExpectedSamplesWald(t *testing.T) {
	def := MakeSPRT(0.05, 0.95, 0.01, 0.01)
	asym := MakeSPRT(0.1, 0.6, 0.05, 0.1)
	for _, c := range []struct {
		name string
		s    SPRT
		p    float64
		want float64
	}{
		{"default at p0", def, 0.05, 1.6993304949864592},
		{"default at p1", def, 0.95, 1.6993304949864592},
		{"default at zero drift", def, 0.5, math.Inf(1)},
		{"asymmetric at p0", asym, 0.1, 3.621479864821729},
		{"asymmetric at p1", asym, 0.6, 3.1653887442240904},
	} {
		got := c.s.ExpectedSamples(c.p)
		if math.IsInf(c.want, 1) {
			if !math.IsInf(got, 1) {
				t.Errorf("%s: ExpectedSamples = %v, want +Inf", c.name, got)
			}
			continue
		}
		if math.Abs(got-c.want) > 1e-9*c.want {
			t.Errorf("%s: ExpectedSamples = %.12f, Wald's value %.12f", c.name, got, c.want)
		}
	}
}

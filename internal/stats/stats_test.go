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
	if h.Total() != 6 {
		t.Fatalf("total = %d", h.Total())
	}
	if !almostEqual(h.P(3), 0.5, 1e-12) || !almostEqual(h.P(1), 1.0/6, 1e-12) {
		t.Fatal("P wrong")
	}
	if !almostEqual(h.TailP(2), 0.5, 1e-12) {
		t.Fatalf("TailP(2) = %v", h.TailP(2))
	}
	if !almostEqual(h.Mean(), 14.0/6, 1e-12) {
		t.Fatalf("mean = %v", h.Mean())
	}
	sup := h.Support()
	if len(sup) != 3 || sup[0] != 1 || sup[2] != 3 {
		t.Fatalf("support = %v", sup)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.P(0) != 0 || h.TailP(0) != 0 || h.Mean() != 0 {
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

func TestSPRTReset(t *testing.T) {
	s := MakeSPRT(0.1, 0.5, 0.05, 0.05)
	s.Observe(true)
	s.Observe(true)
	s.Reset()
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

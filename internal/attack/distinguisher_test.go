package attack

import (
	"context"
	"errors"
	"testing"

	"repro/internal/helperdata"
	"repro/internal/rng"
	"repro/internal/stats"
)

// bernoulliArm returns an Arm failing with probability p.
func bernoulliArm(r *rng.Source, p float64) Arm {
	return func() bool { return r.Float64() < p }
}

// bernoulliTarget is a failure oracle whose installed hypothesis sets
// the probability that the next query fails. Only Query and Queries are
// exercised by the distinguisher; the image methods are inert.
type bernoulliTarget struct {
	r       *rng.Source
	p       float64
	queries int
}

func (b *bernoulliTarget) Spec() Spec                            { return Spec{} }
func (b *bernoulliTarget) ReadImage() (*helperdata.Image, error) { return nil, nil }
func (b *bernoulliTarget) WriteImage(*helperdata.Image) error    { return nil }
func (b *bernoulliTarget) Queries() int                          { return b.queries }

func (b *bernoulliTarget) Query() bool {
	b.queries++
	return b.r.Float64() < b.p
}

// rates returns one hypothesis per failure rate: installing hypothesis i
// makes the target fail with probability ps[i].
func rates(ps ...float64) []Hypothesis {
	hyps := make([]Hypothesis, len(ps))
	for i, p := range ps {
		hyps[i] = func(t Target) error {
			t.(*bernoulliTarget).p = p
			return nil
		}
	}
	return hyps
}

// best runs one hypothesis test and checks that the reported query
// count matches the queries the target actually served.
func best(t *testing.T, d Distinguisher, tgt *bernoulliTarget, hyps []Hypothesis) (int, int) {
	t.Helper()
	before := tgt.queries
	i, q, err := d.BestHypotheses(context.Background(), tgt, hyps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if served := tgt.queries - before; served != q {
		t.Fatalf("reported %d queries, target served %d", q, served)
	}
	return i, q
}

func TestBestFixedSample(t *testing.T) {
	tgt := &bernoulliTarget{r: rng.New(1)}
	d := Distinguisher{Strategy: FixedSample, Queries: 60}
	correct := 0
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		i, q := best(t, d, tgt, rates(0.9, 0.1, 0.9))
		if q != 3*60 {
			t.Fatalf("queries %d", q)
		}
		if i == 1 {
			correct++
		}
	}
	if correct < 97 {
		t.Fatalf("fixed-sample picked the quiet arm %d/%d", correct, trials)
	}
}

func TestBestSequential(t *testing.T) {
	tgt := &bernoulliTarget{r: rng.New(2)}
	d := Distinguisher{Strategy: Sequential, Queries: 40, P0: 0.1, P1: 0.9, Alpha: 0.01, Beta: 0.01}
	correct, totalQ := 0, 0
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		i, q := best(t, d, tgt, rates(0.9, 0.1))
		totalQ += q
		if i == 1 {
			correct++
		}
	}
	if correct < 96 {
		t.Fatalf("sequential picked the quiet arm %d/%d", correct, trials)
	}
	// Sequential must be cheaper than fixed-sample at similar power.
	fixedCost := 2 * 40 * trials
	if totalQ >= fixedCost {
		t.Fatalf("sequential cost %d >= fixed cost %d", totalQ, fixedCost)
	}
}

func TestBestSequentialFallsBack(t *testing.T) {
	// Two arms both failing often: no arm accepted at the nominal rate,
	// the fallback must still return a decision.
	tgt := &bernoulliTarget{r: rng.New(3)}
	d := Distinguisher{Strategy: Sequential, Queries: 10, P0: 0.02, P1: 0.5, Alpha: 0.01, Beta: 0.01, MaxQueries: 50}
	i, q := best(t, d, tgt, rates(0.95, 0.95))
	if i != 0 && i != 1 {
		t.Fatalf("best = %d", i)
	}
	// Each SPRT rejects or runs to MaxQueries, then the fallback spends
	// its fixed 2*Queries on top.
	if q <= 2*10 {
		t.Fatalf("queries %d: the fallback ran without the SPRT round", q)
	}
}

func TestBestSingleArm(t *testing.T) {
	tgt := &bernoulliTarget{r: rng.New(4)}
	i, q := best(t, DefaultDistinguisher(), tgt, rates(0))
	if i != 0 || q != 0 {
		t.Fatalf("single arm: best=%d q=%d", i, q)
	}
}

func TestBestEmptyArmSet(t *testing.T) {
	tgt := &bernoulliTarget{r: rng.New(5)}
	i, q, err := DefaultDistinguisher().BestHypotheses(context.Background(), tgt, nil, nil)
	if i != -1 || q != 0 || !errors.Is(err, ErrNoArms) || tgt.queries != 0 {
		t.Fatalf("empty arm set: best=%d q=%d err=%v (%d served), want (-1, 0, ErrNoArms)", i, q, err, tgt.queries)
	}
}

func TestNormalizedClamps(t *testing.T) {
	d := Distinguisher{Strategy: Sequential, P0: 0, P1: 1}.normalized()
	if d.P0 <= 0 || d.P1 >= 1 || d.P0 >= d.P1 {
		t.Fatalf("normalized rates %v %v", d.P0, d.P1)
	}
	// Inverted calibration falls back to sane defaults.
	inv := Distinguisher{P0: 0.9, P1: 0.1}.normalized()
	if inv.P0 >= inv.P1 {
		t.Fatalf("inverted rates not repaired: %v %v", inv.P0, inv.P1)
	}
}

// calibrate installs each reference hypothesis once, queries it n
// times, and reports the two empirical rates; Apply then orders them
// into the distinguisher.
func TestCalibrate(t *testing.T) {
	tgt := &bernoulliTarget{r: rng.New(4)}
	ref := rates(0.05, 0.8)
	cal, err := calibrate(context.Background(), tgt, ref[0], ref[1], 400, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cal.PNominal > 0.12 || cal.PElevated < 0.7 {
		t.Fatalf("calibration %+v", cal)
	}
	if cal.Queries != 800 || tgt.queries != 800 {
		t.Fatalf("queries: reported %d, served %d", cal.Queries, tgt.queries)
	}
	d := cal.Apply(Distinguisher{})
	if d.P0 != cal.PNominal || d.P1 != cal.PElevated {
		t.Fatalf("apply: P0/P1 = %v/%v, want %v/%v", d.P0, d.P1, cal.PNominal, cal.PElevated)
	}

	// An install failure aborts before any query; cancellation stops
	// calibration at its next query.
	fail := Hypothesis(func(Target) error { return errors.New("rejected") })
	if _, err := calibrate(context.Background(), tgt, fail, ref[1], 10, nil); err == nil || tgt.queries != 800 {
		t.Fatalf("install failure: err %v after %d queries", err, tgt.queries-800)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := calibrate(ctx, tgt, ref[0], ref[1], 10, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled calibration: err %v", err)
	}
}

func TestEstimateFailureRate(t *testing.T) {
	r := rng.New(5)
	if p := EstimateFailureRate(bernoulliArm(r, 0.3), 5000); p < 0.25 || p > 0.35 {
		t.Fatalf("estimate %v", p)
	}
	if EstimateFailureRate(nil, 0) != 0 {
		t.Fatal("zero-query estimate")
	}
}

func TestStrategyString(t *testing.T) {
	if FixedSample.String() != "fixed-sample" || Sequential.String() != "sequential" {
		t.Fatal("strings wrong")
	}
}

// TestNormalizedMakesTheSPRTOfItsRates pins the sequential test a
// normalized distinguisher carries for its arms: the test of its
// current rates and error probabilities, made again when a field
// changes after normalization (Calibration.Apply sets the rates of a
// normalized distinguisher), and left alone by a renormalization.
func TestNormalizedMakesTheSPRTOfItsRates(t *testing.T) {
	d := DefaultDistinguisher().normalized()
	if want := stats.MakeSPRT(d.P0, d.P1, d.Alpha, d.Beta); d.sprt != want {
		t.Fatalf("normalized default carries %+v, want %+v", d.sprt, want)
	}
	if again := d.normalized(); again != d {
		t.Fatal("renormalizing changed the distinguisher")
	}
	d = Calibration{PNominal: 0.1, PElevated: 0.7}.Apply(d)
	if want := stats.MakeSPRT(0.1, 0.7, d.Alpha, d.Beta); d.sprt != want {
		t.Fatalf("after calibration the test is %+v, want %+v", d.sprt, want)
	}
	d.Beta = 0.05
	if want := stats.MakeSPRT(0.1, 0.7, d.Alpha, 0.05); d.normalized().sprt != want {
		t.Fatal("a changed Beta kept the old test")
	}
}

package stats

import (
	"fmt"
	"math"
)

// SPRT implements Wald's sequential probability ratio test for Bernoulli
// observations, deciding between failure rates p0 (H0) and p1 (H1) with
// designed error probabilities alpha (accepting H1 when H0 is true) and
// beta (accepting H0 when H1 is true).
//
// The paper's attacks repeatedly query a failure oracle and compare
// failure rates between two helper-data manipulations; the SPRT is the
// query-optimal way to run that comparison and is used by the attack
// framework's adaptive distinguisher. Its expected sample size is
// substantially below the fixed-sample bound of
// RequiredSamplesTwoProportions — one of the ablations in bench_test.go.
type SPRT struct {
	llr0, llr1 float64 // per-observation log-likelihood increments
	upper      float64 // accept H1 when the LLR exceeds this
	lower      float64 // accept H0 when the LLR falls below this
	llr        float64
	n          int
}

// SPRTDecision is the outcome of a sequential test step.
type SPRTDecision int

// SPRT outcomes.
const (
	SPRTContinue SPRTDecision = iota
	SPRTAcceptH0
	SPRTAcceptH1
)

// String implements fmt.Stringer for diagnostics.
func (d SPRTDecision) String() string {
	switch d {
	case SPRTContinue:
		return "continue"
	case SPRTAcceptH0:
		return "accept-H0"
	case SPRTAcceptH1:
		return "accept-H1"
	}
	return fmt.Sprintf("SPRTDecision(%d)", int(d))
}

// MakeSPRT constructs a test of H0: p = p0 against H1: p = p1 with
// 0 <= p0 < p1 <= 1 and error probabilities alpha, beta in (0, 1).
// Degenerate rates (p0 = 0 or p1 = 1) are clamped slightly inward so the
// log-likelihood ratios stay finite. It returns the test by value, so
// callers that run one test per hypothesis arm on a hot loop keep the
// state on their own stack.
func MakeSPRT(p0, p1, alpha, beta float64) SPRT {
	if !(p0 < p1) || p0 < 0 || p1 > 1 {
		panic(fmt.Sprintf("stats: invalid SPRT rates p0=%v p1=%v", p0, p1))
	}
	if alpha <= 0 || alpha >= 1 || beta <= 0 || beta >= 1 {
		panic(fmt.Sprintf("stats: invalid SPRT errors alpha=%v beta=%v", alpha, beta))
	}
	const eps = 1e-9
	p0 = math.Max(p0, eps)
	p1 = math.Min(p1, 1-eps)
	return SPRT{
		llr1:  math.Log(p1 / p0),             // increment for a failure
		llr0:  math.Log((1 - p1) / (1 - p0)), // increment for a success
		upper: math.Log((1 - beta) / alpha),
		lower: math.Log(beta / (1 - alpha)),
	}
}

// Observe folds one Bernoulli observation (failure=true) into the test
// and returns the current decision.
func (s *SPRT) Observe(failure bool) SPRTDecision {
	if failure {
		s.llr += s.llr1
	} else {
		s.llr += s.llr0
	}
	s.n++
	return s.Decision()
}

// Decision returns the current state without consuming an observation.
func (s *SPRT) Decision() SPRTDecision {
	switch {
	case s.llr >= s.upper:
		return SPRTAcceptH1
	case s.llr <= s.lower:
		return SPRTAcceptH0
	default:
		return SPRTContinue
	}
}

// N returns the number of observations consumed so far.
func (s *SPRT) N() int { return s.n }

// Reset clears the test state for reuse.
func (s *SPRT) Reset() {
	s.llr = 0
	s.n = 0
}

// ExpectedSamples returns Wald's approximation of the expected sample
// size when the true failure rate is p. No caller yet: it stays exported
// for the query-budget work on the SPRT (ROADMAP item 6).
func (s *SPRT) ExpectedSamples(p float64) float64 {
	mean := p*s.llr1 + (1-p)*s.llr0
	if math.Abs(mean) < 1e-15 {
		return math.Inf(1)
	}
	// Probability of accepting H1 under p via Wald's identity with the
	// two-point boundary approximation.
	var acceptH1 float64
	switch {
	case mean > 0:
		acceptH1 = 1
	default:
		acceptH1 = 0
	}
	return (acceptH1*s.upper + (1-acceptH1)*s.lower) / mean
}

package attack

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/stats"
)

// This file is the statistical heart the four attacks share (the paper's
// Fig. 5): hypotheses about response bits map to helper manipulations; a
// common offset of deterministic errors pushes the ECC to the edge of
// its correction radius; the hypothesis whose failure rate stays nominal
// wins. Attacks and distinguisher live together behind the same
// oracle-agnostic Target surface, and every hypothesis test runs through
// one serial path, Distinguisher.BestHypotheses, against the one device
// the adversary holds.

// ErrNoArms reports a hypothesis test over an empty arm set — a malformed
// attack configuration rather than a statistical outcome.
// BestHypotheses returns it, so an attack passes it up (wrapped) instead
// of crashing a long-running campaign.
var ErrNoArms = errors.New("attack: no hypothesis arms to distinguish")

// Arm is one observation source for failure-rate estimation: a closure
// that performs one oracle query (after whatever manipulation it needs)
// and reports FAILURE (true = the key-dependent application misbehaved).
// EstimateFailureRate takes arms; calibration and hypothesis tests take
// Hypothesis values instead.
type Arm func() bool

// Hypothesis is one arm of a hypothesis test: it writes the arm's
// manipulated helper (and, for reprogrammed-key targets, binds the
// predicted key) into the oracle it is given. One Query on that oracle
// then yields one observation.
type Hypothesis func(t Target) error

// Strategy selects how the distinguisher spends queries.
type Strategy int

const (
	// Sequential runs Wald's SPRT per arm against calibrated nominal
	// and elevated failure rates, returning the first arm accepted at
	// the nominal rate. Falls back to FixedSample when no arm is
	// accepted. Substantially cheaper at equal error probability — one
	// of the repository's ablations. It is the zero value, so a zero
	// Distinguisher normalizes to DefaultDistinguisher.
	Sequential Strategy = iota
	// FixedSample queries every arm the same number of times and takes
	// the arm with the fewest failures.
	FixedSample
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case FixedSample:
		return "fixed-sample"
	case Sequential:
		return "sequential"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Distinguisher decides which of several helper-data hypotheses is
// correct by comparing observable failure rates.
type Distinguisher struct {
	Strategy Strategy
	// Queries is the per-arm budget of the fixed-sample strategy (and
	// of the sequential fallback).
	Queries int
	// P0 and P1 are the calibrated failure rates under the correct
	// hypothesis (nominal + injected offset) and under a wrong
	// hypothesis (one extra error beyond the offset). Sequential only.
	P0, P1 float64
	// Alpha and Beta are the designed SPRT error probabilities.
	Alpha, Beta float64
	// MaxQueries caps a single SPRT run; 0 means 64 * Queries.
	MaxQueries int
}

// DefaultDistinguisher returns a sequential distinguisher with
// conservative defaults suitable for well-separated rates.
func DefaultDistinguisher() Distinguisher {
	return Distinguisher{
		Strategy: Sequential,
		Queries:  12,
		P0:       0.05, P1: 0.95,
		Alpha: 0.01, Beta: 0.01,
	}
}

// normalized returns the distinguisher with defaults filled in and rates
// clamped away from the degenerate endpoints.
func (d Distinguisher) normalized() Distinguisher {
	if d.Queries <= 0 {
		d.Queries = 12
	}
	if d.Alpha <= 0 || d.Alpha >= 1 {
		d.Alpha = 0.01
	}
	if d.Beta <= 0 || d.Beta >= 1 {
		d.Beta = 0.01
	}
	const eps = 0.02
	if d.P0 < eps {
		d.P0 = eps
	}
	if d.P1 > 1-eps {
		d.P1 = 1 - eps
	}
	if d.P0 >= d.P1 {
		// Degenerate calibration; fall back to something sane.
		d.P0, d.P1 = 0.05, 0.95
	}
	if d.MaxQueries <= 0 {
		d.MaxQueries = 64 * d.Queries
	}
	return d
}

// BestHypotheses returns the index of the hypothesis with the lowest
// failure rate on t and the number of queries spent, installing each
// hypothesis before every query. ctx is checked and the budget charged
// before every query, after its install; on cancellation, exhaustion or
// a rejected install it returns (-1, queries so far, err). An empty
// set returns (-1, 0, ErrNoArms); a single hypothesis wins without a
// query.
//
// Sequential runs the arms' SPRTs one after another and stops at the
// first arm accepted at the nominal rate — Wald's early exit — falling
// back to a fixed-sample pass when none is.
func (d Distinguisher) BestHypotheses(ctx context.Context, t Target, hyps []Hypothesis, b *Budget) (best, queries int, err error) {
	if len(hyps) == 0 {
		return -1, 0, ErrNoArms
	}
	d = d.normalized()
	if len(hyps) == 1 {
		return 0, 0, nil
	}
	if d.Strategy == Sequential {
		total := 0
		for i := range hyps {
			accepted, n, err := d.sprtHyp(ctx, t, hyps[i], b)
			total += n
			if err != nil {
				return -1, total, err
			}
			if accepted {
				return i, total, nil
			}
		}
		// No arm accepted at the nominal rate: fall back.
		best, extra, err := d.fixedBestHyp(ctx, t, hyps, b)
		return best, total + extra, err
	}
	return d.fixedBestHyp(ctx, t, hyps, b)
}

// install writes a hypothesis's arm into t. A rejected install is not
// an observation: the caller ends its decision, and the attack, with the
// returned error, which wraps the device's.
func install(t Target, h Hypothesis) error {
	if err := h(t); err != nil {
		return fmt.Errorf("attack: arm install rejected: %w", err)
	}
	return nil
}

// observe installs a hypothesis and performs one oracle query. The
// query gate comes after the install, so the budget is charged only for
// a query that is made.
func observe(ctx context.Context, t Target, h Hypothesis, b *Budget) (failed bool, err error) {
	if err := install(t, h); err != nil {
		return false, err
	}
	if err := queryGate(ctx, b); err != nil {
		return false, err
	}
	return t.Query(), nil
}

// sprtHyp runs one hypothesis's SPRT to a decision (or MaxQueries) and
// reports whether it accepted the nominal rate and the queries spent.
func (d Distinguisher) sprtHyp(ctx context.Context, t Target, h Hypothesis, b *Budget) (accepted bool, n int, err error) {
	s := stats.MakeSPRT(d.P0, d.P1, d.Alpha, d.Beta)
	decision := stats.SPRTContinue
	for decision == stats.SPRTContinue && s.N() < d.MaxQueries {
		failed, err := observe(ctx, t, h, b)
		if err != nil {
			return false, s.N(), err
		}
		decision = s.Observe(failed)
	}
	return decision == stats.SPRTAcceptH0, s.N(), nil
}

// fixedBestHyp queries every hypothesis d.Queries times and returns the
// one with the fewest failures.
func (d Distinguisher) fixedBestHyp(ctx context.Context, t Target, hyps []Hypothesis, b *Budget) (int, int, error) {
	best, bestFails := 0, int(^uint(0)>>1)
	total := 0
	for i := range hyps {
		fails := 0
		for q := 0; q < d.Queries; q++ {
			failed, err := observe(ctx, t, hyps[i], b)
			if err != nil {
				return -1, total + q, err
			}
			if failed {
				fails++
			}
		}
		total += d.Queries
		if fails < bestFails {
			best, bestFails = i, fails
		}
	}
	return best, total, nil
}

// queryGate enforces cancellation and budget before one oracle query.
func queryGate(ctx context.Context, b *Budget) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return b.Spend(1)
}

// EstimateFailureRate queries an arm n times and returns the empirical
// failure rate.
func EstimateFailureRate(arm Arm, n int) float64 {
	p, _ := estimateRate(context.Background(), arm, n, nil)
	return p
}

// estimateRate is EstimateFailureRate with cancellation and metering.
func estimateRate(ctx context.Context, arm Arm, n int, b *Budget) (float64, error) {
	if n <= 0 {
		return 0, nil
	}
	fails := 0
	for i := 0; i < n; i++ {
		if err := queryGate(ctx, b); err != nil {
			return 0, err
		}
		if arm() {
			fails++
		}
	}
	return float64(fails) / float64(n), nil
}

// Calibration holds the failure rates measured for reference injection
// levels; attacks use it to parameterize the sequential distinguisher.
type Calibration struct {
	// PNominal is the failure rate with the common offset only (the
	// correct-hypothesis rate, Fig. 5's H-correct PDF tail).
	PNominal float64
	// PElevated is the failure rate with one extra injected error (a
	// wrong hypothesis's rate).
	PElevated float64
	// Queries spent measuring.
	Queries int
}

// calibrationQueries sizes the up-front failure-rate calibration of
// the attacks that calibrate (seqpair, tempco), per reference rate.
const calibrationQueries = 24

// calibrate measures the two reference rates. nominal and elevated
// install the attack's common offset and offset+1 deterministic errors
// respectively, built with value-independent manipulations; each is
// installed once and then queried n times. An install failure aborts,
// as it does in a decision.
func calibrate(ctx context.Context, t Target, nominal, elevated Hypothesis, n int, b *Budget) (Calibration, error) {
	var rates [2]float64
	for i, h := range [2]Hypothesis{nominal, elevated} {
		if err := install(t, h); err != nil {
			return Calibration{}, err
		}
		p, err := estimateRate(ctx, t.Query, n, b)
		if err != nil {
			return Calibration{}, err
		}
		rates[i] = p
	}
	return Calibration{PNominal: rates[0], PElevated: rates[1], Queries: 2 * n}, nil
}

// Apply transfers calibrated rates onto a distinguisher.
func (c Calibration) Apply(d Distinguisher) Distinguisher {
	d.P0 = c.PNominal
	d.P1 = c.PElevated
	return d.normalized()
}

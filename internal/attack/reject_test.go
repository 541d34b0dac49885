package attack

import (
	"context"
	"errors"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/helperdata"
	"repro/internal/rng"
)

// errArmRejected is the device error the rejecting targets return.
var errArmRejected = errors.New("device: arm rejected")

// rejectingTarget wraps a device target and rejects helper writes:
// every write, or with acceptFirst every write but those of the first
// image it is asked to install. The attacks keep one pooled image per
// arm, so with acceptFirst the first arm installs and is queried while
// the second (or calibration's elevated reference) is rejected.
type rejectingTarget struct {
	Target
	acceptFirst bool
	first       *helperdata.Image
}

func (r *rejectingTarget) WriteImage(im *helperdata.Image) error {
	if r.first == nil {
		r.first = im
	}
	if !r.acceptFirst || im != r.first {
		return errArmRejected
	}
	return r.Target.WriteImage(im)
}

func (r *rejectingTarget) BindKey(key bitvec.Vector) { r.Target.(KeyBinder).BindKey(key) }

// TestRejectedArmEndsTheAttack runs all five attacks, under both
// strategies, against a target that rejects every arm and one that
// rejects only the second. Each run must fail with the device's error
// and no key, report exactly the queries the device served, and a
// budget of exactly those queries (at least one) must not run out
// before the rejection: an install that fails is not charged.
func TestRejectedArmEndsTheAttack(t *testing.T) {
	targets := map[string]func() Target{
		"seqpair":    func() Target { return NewSeqPairTarget(seqPairDevice(t, 5)) },
		"tempco":     func() Target { return NewTempCoTarget(tempcoDevice(t, 7)) },
		"groupbased": func() Target { return NewGroupBasedTarget(groupBasedDevice(t, 9)) },
		"masking":    func() Target { return NewDistillerTarget(maskingDevice(t, 11)) },
		"chain":      func() Target { return NewDistillerTarget(chainDevice(t, 13)) },
	}
	fixed := DefaultDistinguisher()
	fixed.Strategy = FixedSample
	for _, name := range Names() {
		for _, dist := range []Distinguisher{DefaultDistinguisher(), fixed} {
			for _, acceptFirst := range []bool{false, true} {
				run := func(budget int) (Report, int, error) {
					tgt := &rejectingTarget{Target: targets[name](), acceptFirst: acceptFirst}
					before := tgt.Queries()
					rep, err := Run(context.Background(), name, tgt, Options{Dist: dist, QueryBudget: budget})
					return rep, tgt.Queries() - before, err
				}
				rep, served, err := run(0)
				if !errors.Is(err, errArmRejected) {
					t.Fatalf("%s %v acceptFirst=%v: err %v, want the device's rejection", name, dist.Strategy, acceptFirst, err)
				}
				if rep.Key.Len() != 0 || rep.Queries != served {
					t.Fatalf("%s %v acceptFirst=%v: report key %q, %d queries; device served %d",
						name, dist.Strategy, acceptFirst, rep.Key, rep.Queries, served)
				}
				if acceptFirst && served == 0 {
					t.Fatalf("%s %v: the first arm was never queried", name, dist.Strategy)
				}
				rep, again, err := run(max(served, 1))
				if !errors.Is(err, errArmRejected) || again != served || rep.Queries != served {
					t.Fatalf("%s %v acceptFirst=%v: budget %d: err %v after %d queries (report %d), want the rejection after %d",
						name, dist.Strategy, acceptFirst, max(served, 1), err, again, rep.Queries, served)
				}
			}
		}
	}
}

// TestRejectedArmIsNotAnObservation pins the decision layer: a rejected
// install ends BestHypotheses with the device's error, and the queries
// it reports, the queries the target served and the budget spent agree.
func TestRejectedArmIsNotAnObservation(t *testing.T) {
	reject := Hypothesis(func(Target) error { return errArmRejected })
	fixed := DefaultDistinguisher()
	fixed.Strategy = FixedSample
	for _, d := range []Distinguisher{DefaultDistinguisher(), fixed} {
		tgt := &bernoulliTarget{r: rng.New(6)}
		// Arm 0 fails at the elevated rate, so the sequential test
		// rejects it and moves on to the rejected arm.
		hyps := append(rates(0.95), reject)
		b := NewBudget(1000)
		best, q, err := d.BestHypotheses(context.Background(), tgt, hyps, b)
		if !errors.Is(err, errArmRejected) || best != -1 {
			t.Fatalf("%v: best %d, err %v, want -1 and the rejection", d.Strategy, best, err)
		}
		if q == 0 || q != tgt.queries || int(1000-b.remaining.Load()) != q {
			t.Fatalf("%v: reported %d queries, served %d, budget spent %d", d.Strategy, q, tgt.queries, 1000-b.remaining.Load())
		}
	}
}

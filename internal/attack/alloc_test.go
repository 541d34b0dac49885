package attack

import (
	"context"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/device"
	"repro/internal/ecc"
	"repro/internal/pairing"
	"repro/internal/rng"
)

// Attack-level allocation fences, complementing the device-level ones in
// internal/device: a single App() is allocation-free, and the attack
// layer keeps the same scratch-buffer contract; these tests keep it from
// regressing silently.
//
// Three kinds of pins:
//
//   - Steady-state arm evaluation: once an arm's image has been
//     installed, every further (re-install, bind, query) round of its
//     SPRT run must stay allocation-free — the write cache recognizes
//     the unchanged image, the bound key is copied into a device-owned
//     buffer, and the reconstruction runs in device scratch.
//
//   - Warm decisions: building a decision's arms into their pooled
//     slots and installing each once (a full parse and device write,
//     since every arm's image was just rewritten) allocates nothing.
//
//   - Whole-run ceilings: enroll + Run on a fixed seed allocates a
//     deterministic amount; the budgets below sit ~25% above measured
//     values, so an arm-path regression trips long before it shows up
//     in BENCH_attacks.json.

func maskingDevice(t testing.TB, seed uint64) *device.DistillerPairDevice {
	t.Helper()
	d, err := device.EnrollDistillerPairReuse(nil, device.DistillerPairParams{
		Rows: 4, Cols: 10,
		Degree: 2, Mode: device.MaskedChain, K: 5,
		Code:       ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3}),
		EnrollReps: 25,
	}, rng.New(seed), rng.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// armRoundAllocBudget bounds one steady-state (install, bind, query)
// round. The paths are designed to allocate zero; the slack tolerates
// runtime bookkeeping noise, not real per-query work.
const armRoundAllocBudget = 2

// steadyArmAllocs measures the steady state of an arm's query loop:
// re-install the SAME image, re-bind a fixed predicted key (on
// KeyBinder targets), query once.
func steadyArmAllocs(t *testing.T, tgt Target) float64 {
	t.Helper()
	im, err := tgt.ReadImage()
	if err != nil {
		t.Fatal(err)
	}
	kb, _ := tgt.(KeyBinder)
	predKey := bitvec.Ones(16)
	round := func() {
		if err := tgt.WriteImage(im); err != nil {
			t.Fatal(err)
		}
		if kb != nil {
			// The value is irrelevant; the copy path is what's measured.
			kb.BindKey(predKey)
		}
		tgt.Query()
	}
	// Warm the adapter caches and grow every scratch buffer.
	for i := 0; i < 3; i++ {
		round()
	}
	return testing.AllocsPerRun(50, round)
}

func TestArmEvaluationAllocationsGroupBased(t *testing.T) {
	tgt := NewGroupBasedTarget(groupBasedDevice(t, 42))
	if got := steadyArmAllocs(t, tgt); got > armRoundAllocBudget {
		t.Fatalf("groupbased arm round allocates %.1f/op, budget %d", got, armRoundAllocBudget)
	}
}

func TestArmEvaluationAllocationsMasking(t *testing.T) {
	tgt := NewDistillerTarget(maskingDevice(t, 42))
	if got := steadyArmAllocs(t, tgt); got > armRoundAllocBudget {
		t.Fatalf("masking arm round allocates %.1f/op, budget %d", got, armRoundAllocBudget)
	}
}

func TestArmEvaluationAllocationsChain(t *testing.T) {
	tgt := NewDistillerTarget(chainDevice(t, 42))
	if got := steadyArmAllocs(t, tgt); got > armRoundAllocBudget {
		t.Fatalf("chain arm round allocates %.1f/op, budget %d", got, armRoundAllocBudget)
	}
}

// runAllocs measures one full enroll + Run cycle (both deterministic
// from the seed, so repetitions allocate identically).
func runAllocs(t *testing.T, f func() Target, name string) float64 {
	t.Helper()
	return testing.AllocsPerRun(3, func() {
		tgt := f()
		if _, err := Run(context.Background(), name, tgt, Options{Dist: DefaultDistinguisher()}); err != nil {
			t.Fatal(err)
		}
	})
}

// warmDecisionAllocs measures one warm decision: build makes the
// decision's arms, then each is installed once. Every install must be a
// full write (the device's NVM generation advances once per arm), so
// the measurement covers the adapter's parse and the device's copy, not
// only the write cache.
func warmDecisionAllocs(t *testing.T, tgt Target, nvmGen func() uint64, build func() []Hypothesis) float64 {
	t.Helper()
	round := func() {
		arms := build()
		before := nvmGen()
		for _, h := range arms {
			if err := h(tgt); err != nil {
				t.Fatal(err)
			}
		}
		if got := nvmGen() - before; got != uint64(len(arms)) {
			t.Fatalf("%d arms made %d device writes", len(arms), got)
		}
	}
	for range 3 {
		round()
	}
	return testing.AllocsPerRun(50, round)
}

func TestWarmDecisionAllocationsGroupBased(t *testing.T) {
	d := groupBasedDevice(t, 42)
	tgt := NewGroupBasedTarget(d)
	original := d.ReadHelper()
	spec := tgt.Spec()
	var group []int
	for _, g := range original.Grouping.Members() {
		if len(g) >= 2 {
			group = g
			break
		}
	}
	a, b := group[0], group[1]
	sc := armScratch{code: spec.Code, inject: spec.Code.T(), compose: groupBasedImage}
	// The plan table is loaded once per run; the plan lookup is part of
	// every decision.
	plans := pairPlanSlots(spec.Rows, spec.Cols)
	got := warmDecisionAllocs(t, tgt, d.NVMGeneration, func() []Hypothesis {
		if err := pairArms(&sc, original.Poly, pairPlanFor(plans, spec.Rows, spec.Cols, a, b)); err != nil {
			t.Fatal(err)
		}
		return sc.arms
	})
	if got != 0 {
		t.Fatalf("warm groupbased decision allocates %.1f/op, want 0", got)
	}
}

func TestWarmDecisionAllocationsMasking(t *testing.T) {
	d := maskingDevice(t, 42)
	tgt := NewDistillerTarget(d)
	h := d.ReadHelper()
	poly, mask := h.Poly, h.Masking
	spec := tgt.Spec()
	base := pairing.ChainPairs(spec.Rows, spec.Cols, true)
	sc := armScratch{code: spec.Code, inject: spec.Code.T(), compose: distillerImage}
	plans := maskPlans.slots(maskKey{spec.Rows, spec.Cols, mask.K}, len(base))
	got := warmDecisionAllocs(t, tgt, d.NVMGeneration, func() []Hypothesis {
		plan := maskPlanFor(plans, spec.Rows, spec.Cols, mask.K, base, 1)
		if plan.err != nil {
			t.Fatal(plan.err)
		}
		if err := maskArms(&sc, poly, plan, 1/mask.K); err != nil {
			t.Fatal(err)
		}
		return sc.arms
	})
	if got != 0 {
		t.Fatalf("warm masking decision allocates %.1f/op, want 0", got)
	}
}

func TestWarmDecisionAllocationsChain(t *testing.T) {
	d := chainDevice(t, 42)
	tgt := NewDistillerTarget(d)
	poly := d.ReadHelper().Poly
	spec := tgt.Spec()
	n := len(pairing.ChainPairs(spec.Rows, spec.Cols, false))
	// Two undetermined bits, one per row: four arms.
	unknown := []int{0, spec.Cols - 1}
	sc := armScratch{code: spec.Code, inject: spec.Code.T(), compose: distillerImage}
	plans := boundaryPlans.slots(geometry{spec.Rows, spec.Cols}, spec.Rows+spec.Cols-2)
	got := warmDecisionAllocs(t, tgt, d.NVMGeneration, func() []Hypothesis {
		// The first column boundary.
		sc.decide(poly, boundaryPlanFor(plans, spec.Rows, spec.Cols, 0, true, 0.5).pattern, nil)
		for hyp := range 1 << len(unknown) {
			stream := scratchVec(&sc.stream, n)
			for p, idx := range unknown {
				stream.Set(idx, hyp>>p&1 == 1)
			}
			if err := sc.add(stream, unknown[0], unknown); err != nil {
				t.Fatal(err)
			}
		}
		return sc.arms
	})
	if got != 0 {
		t.Fatalf("warm chain decision allocates %.1f/op, want 0", got)
	}
}

// TestWarmSwapArmAllocationsSeqPair pins the seqpair relation sweep's
// swap arm: rewriting the pooled slot for the next pair and installing
// it allocates nothing.
func TestWarmSwapArmAllocationsSeqPair(t *testing.T) {
	d := seqPairDevice(t, 42)
	tgt := NewSeqPairTarget(d)
	h := d.ReadHelper()
	original := h.Pairs
	arms := newSeqPairArms(original, h.Offset)
	inj := []int{1, 2, 3}
	j := 4
	var swap [1]Hypothesis
	got := warmDecisionAllocs(t, tgt, d.NVMGeneration, func() []Hypothesis {
		j = 4 + (j-3)%(len(original.Pairs)-4) // walk the sweep's pairs
		swap[0] = arms.arm(0, inj, 0, j)
		return swap[:]
	})
	if got != 0 {
		t.Fatalf("warm seqpair swap arm allocates %.1f/op, want 0", got)
	}
}

func TestRunAllocationCeilingGroupBased(t *testing.T) {
	got := runAllocs(t, func() Target { return NewGroupBasedTarget(groupBasedDevice(t, 9)) }, "groupbased")
	// Measured: 212.
	if got > 265 {
		t.Fatalf("groupbased enroll+run allocates %.0f, ceiling 265", got)
	}
}

func TestRunAllocationCeilingMasking(t *testing.T) {
	got := runAllocs(t, func() Target { return NewDistillerTarget(maskingDevice(t, 11)) }, "masking")
	// Measured: 92.
	if got > 115 {
		t.Fatalf("masking enroll+run allocates %.0f, ceiling 115", got)
	}
}

func TestRunAllocationCeilingChain(t *testing.T) {
	got := runAllocs(t, func() Target { return NewDistillerTarget(chainDevice(t, 13)) }, "chain")
	// Measured: 187.
	if got > 234 {
		t.Fatalf("chain enroll+run allocates %.0f, ceiling 234", got)
	}
}

func TestRunAllocationCeilingSeqPair(t *testing.T) {
	got := runAllocs(t, func() Target { return NewSeqPairTarget(seqPairDevice(t, 7)) }, "seqpair")
	// Measured: 66.
	if got > 82 {
		t.Fatalf("seqpair enroll+run allocates %.0f, ceiling 82", got)
	}
}

func TestRunAllocationCeilingTempCo(t *testing.T) {
	got := runAllocs(t, func() Target { return NewTempCoTarget(tempcoDevice(t, 50)) }, "tempco")
	// Measured: 102.
	if got > 127 {
		t.Fatalf("tempco enroll+run allocates %.0f, ceiling 127", got)
	}
}

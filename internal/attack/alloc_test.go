package attack

import (
	"context"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/device"
	"repro/internal/ecc"
	"repro/internal/rng"
)

// Attack-level allocation fences, complementing the device-level ones in
// internal/device: PR 3 made a single App() allocation-free; this PR
// extends the scratch-buffer contract up through the attack layer, and
// these tests keep it from regressing silently.
//
// Two kinds of pins:
//
//   - Steady-state arm evaluation: once an arm's image has been
//     installed and parsed, every further (re-install, bind, query)
//     round of its SPRT run must stay allocation-free — the write cache
//     recognizes the identical image, the bound key is copied into a
//     device-owned buffer, and the reconstruction runs in device
//     scratch.
//
//   - Whole-run ceilings: enroll + Run on a fixed seed allocates a
//     deterministic amount; the budgets below sit ~40% above measured
//     values and far under the pre-scratch counts (5-15x higher), so a
//     scratch-path regression trips long before it shows up in
//     BENCH_attacks.json.

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

func TestRunAllocationCeilingGroupBased(t *testing.T) {
	got := runAllocs(t, func() Target { return NewGroupBasedTarget(groupBasedDevice(t, 9)) }, "groupbased")
	// Pre-scratch: ~13,000 allocs per run. Measured now: 1,440.
	if got > 2000 {
		t.Fatalf("groupbased enroll+run allocates %.0f, ceiling 2000", got)
	}
}

func TestRunAllocationCeilingMasking(t *testing.T) {
	got := runAllocs(t, func() Target { return NewDistillerTarget(maskingDevice(t, 11)) }, "masking")
	// Pre-scratch: ~1,850 allocs per run. Measured now: 473.
	if got > 660 {
		t.Fatalf("masking enroll+run allocates %.0f, ceiling 660", got)
	}
}

func TestRunAllocationCeilingChain(t *testing.T) {
	got := runAllocs(t, func() Target { return NewDistillerTarget(chainDevice(t, 13)) }, "chain")
	// Pre-scratch: ~6,000 allocs per run. Measured now: 801.
	if got > 1120 {
		t.Fatalf("chain enroll+run allocates %.0f, ceiling 1120", got)
	}
}

package device

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/ecc"
	"repro/internal/fuzzy"
	"repro/internal/groupbased"
	"repro/internal/pairing"
	"repro/internal/rng"
	"repro/internal/tempco"
)

// The scratch-buffer rebuild of the reconstruction hot path promises an
// allocation-free steady state: after a warm-up call has grown every
// buffer, App() must stay under a small constant allocation count for
// every device type (the fuzzy device at exactly zero). These tests are the regression fence for that
// contract — any decode-path or measurement-path change that starts
// allocating per query fails here long before it shows up in the attack
// benchmarks.

// appAllocBudget is the per-App() steady-state allocation ceiling. The
// paths are designed to allocate zero; the slack tolerates runtime
// bookkeeping noise, not real per-query work.
const appAllocBudget = 2

func measureAppAllocs(t *testing.T, app func() bool) float64 {
	t.Helper()
	// Warm up the scratch state (first call grows every buffer).
	for i := 0; i < 3; i++ {
		app()
	}
	return testing.AllocsPerRun(50, func() { app() })
}

func TestAppAllocationsSeqPair(t *testing.T) {
	d, err := EnrollSeqPairReuse(nil, SeqPairParams{
		Rows: 8, Cols: 16,
		ThresholdMHz: 0.8,
		Policy:       pairing.RandomizedStorage,
		Code:         ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3, Expurgate: true}),
		EnrollReps:   20,
	}, rng.New(42), rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	if got := measureAppAllocs(t, d.App); got > appAllocBudget {
		t.Fatalf("SeqPairDevice.App allocates %.1f/op, budget %d", got, appAllocBudget)
	}
}

func TestAppAllocationsTempCo(t *testing.T) {
	d, err := EnrollTempCoReuse(nil, tempco.Params{
		Rows: 8, Cols: 16,
		ThresholdMHz: 0.6,
		TminC:        -25, TmaxC: 85,
		Policy:     tempco.RandomSelection,
		Code:       ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3}),
		EnrollReps: 15,
	}, rng.New(42), rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	if got := measureAppAllocs(t, d.App); got > appAllocBudget {
		t.Fatalf("TempCoDevice.App allocates %.1f/op, budget %d", got, appAllocBudget)
	}
}

func TestAppAllocationsGroupBased(t *testing.T) {
	d, err := EnrollGroupBasedReuse(nil, groupbased.Params{
		Rows: 4, Cols: 10,
		Degree:       2,
		ThresholdMHz: 0.5,
		MaxGroupSize: 6,
		Code:         ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3}),
		EnrollReps:   25,
	}, rng.New(42), rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	if got := measureAppAllocs(t, d.App); got > appAllocBudget {
		t.Fatalf("GroupBasedDevice.App allocates %.1f/op, budget %d", got, appAllocBudget)
	}
}

func TestAppAllocationsDistillerPair(t *testing.T) {
	for _, mode := range []PairingMode{MaskedChain, OverlappingChain} {
		p := DistillerPairParams{
			Rows: 4, Cols: 10,
			Degree:     2,
			Mode:       mode,
			Code:       ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3}),
			EnrollReps: 20,
		}
		if mode == MaskedChain {
			p.K = 5
		}
		d, err := EnrollDistillerPairReuse(nil, p, rng.New(42), rng.New(43))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got := measureAppAllocs(t, d.App); got > appAllocBudget {
			t.Fatalf("DistillerPairDevice(%v).App allocates %.1f/op, budget %d", mode, got, appAllocBudget)
		}
	}
}

func TestAppAllocationsFuzzy(t *testing.T) {
	for _, robust := range []bool{false, true} {
		d, err := EnrollFuzzy(FuzzyParams{
			Rows: 8, Cols: 16,
			Extractor:  fuzzy.Params{Code: ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3}), Robust: robust},
			EnrollReps: 20,
		}, rng.New(42), rng.New(43))
		if err != nil {
			t.Fatal(err)
		}
		if !d.App() {
			t.Fatalf("robust=%v: honest App failed", robust)
		}
		if got := measureAppAllocs(t, d.App); got != 0 {
			t.Fatalf("FuzzyDevice(robust=%v).App allocates %.1f/op, want 0", robust, got)
		}
	}
}

// TestAppAllocationsAcrossBlockCounts alternates a group-based device
// between its enrolled helper (three ECC blocks) and a pairs-only
// grouping (one block). After every write, once one query has rebuilt
// the helper-derived scratch, a steady-state App must allocate nothing:
// the decode workspace and its per-block memo keep their storage across
// block-count changes and only grow. A whole write/App/write/App round
// allocates nothing either: the NVM offset copy resizes within its
// capacity, and a grouping that differs from the stored one is
// validated by the scratch layout the reconstruction then reuses.
func TestAppAllocationsAcrossBlockCounts(t *testing.T) {
	code := ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3})
	d, err := EnrollGroupBasedReuse(nil, groupbased.Params{
		Rows: 4, Cols: 10,
		Degree:       2,
		ThresholdMHz: 0.5,
		MaxGroupSize: 6,
		Code:         code,
		EnrollReps:   25,
	}, rng.New(42), rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	enrolled := d.ReadHelper()
	pairs := d.ReadHelper()
	for i := range pairs.Grouping.Assign {
		pairs.Grouping.Assign[i] = i / 2
	}
	pairs.Offset = bitvec.New(code.N())
	if enrolled.Offset.Len() == pairs.Offset.Len() {
		t.Fatalf("enrolled helper has %d bits, want more than one block", enrolled.Offset.Len())
	}
	for i, h := range []groupbased.Helper{pairs, enrolled, pairs, enrolled} {
		if err := d.WriteHelper(h); err != nil {
			t.Fatal(err)
		}
		d.App()
		if got := testing.AllocsPerRun(20, func() { d.App() }); got != 0 {
			t.Fatalf("write %d (%d-bit offset): steady-state App allocates %.1f/op, want 0", i, h.Offset.Len(), got)
		}
	}
	round := func() {
		for _, h := range []groupbased.Helper{pairs, enrolled} {
			if err := d.WriteHelper(h); err != nil {
				t.Fatal(err)
			}
			d.App()
		}
	}
	if got := testing.AllocsPerRun(20, round); got != 0 {
		t.Fatalf("a write/App/write/App round across block counts allocates %.1f, want 0", got)
	}
}

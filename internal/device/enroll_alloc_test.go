package device

import (
	"testing"

	"repro/internal/ecc"
	"repro/internal/groupbased"
	"repro/internal/pairing"
	"repro/internal/rng"
	"repro/internal/tempco"
)

// enrollAllocCeiling is the steady-state allocation ceiling of one
// Enroll*Reuse into a warm carcass, per canonical construction (the
// transcript table's parameters), about 25% above the measured count.
// Enrollment allocates the outputs a device keeps (helper, key, offset)
// and the per-silicon intermediates (averaged map, fit, residuals);
// the design-matrix factorization, the chain pair lists and the BCH
// tables are shared per geometry and code, and must stay out of it.
var enrollAllocCeiling = map[string]float64{
	"seqpair":    9,  // measured 6
	"tempco":     25, // measured 19
	"groupbased": 34, // measured 26
	"masking":    13, // measured 9
	"chain":      10, // measured 7
}

// TestEnrollReuseAllocs pins the allocations of the pooled enrollment
// path, the one campaign workers and the enroll-only benchmark run.
func TestEnrollReuseAllocs(t *testing.T) {
	bch := func(m int, expurgate bool) ecc.Code {
		return ecc.MustBCH(ecc.BCHConfig{M: m, T: 3, Expurgate: expurgate})
	}
	var (
		sp   *SeqPairDevice
		tc   *TempCoDevice
		gb   *GroupBasedDevice
		dist = map[string]*DistillerPairDevice{}
	)
	enroll := map[string]func(mfg, run *rng.Source) error{
		"seqpair": func(mfg, run *rng.Source) (err error) {
			sp, err = EnrollSeqPairReuse(sp, SeqPairParams{
				Rows: 8, Cols: 16, ThresholdMHz: 0.8, Policy: pairing.RandomizedStorage,
				Code: bch(5, true), EnrollReps: 20,
			}, mfg, run)
			return err
		},
		"tempco": func(mfg, run *rng.Source) (err error) {
			tc, err = EnrollTempCoReuse(tc, tempco.Params{
				Rows: 8, Cols: 16, ThresholdMHz: 0.6, TminC: -20, TmaxC: 80,
				Policy: tempco.RandomSelection, Code: bch(6, false), EnrollReps: 25,
			}, mfg, run)
			return err
		},
		"groupbased": func(mfg, run *rng.Source) (err error) {
			gb, err = EnrollGroupBasedReuse(gb, groupbased.Params{
				Rows: 4, Cols: 10, Degree: 2, ThresholdMHz: 0.5, MaxGroupSize: 6,
				Code: bch(5, false), EnrollReps: 25,
			}, mfg, run)
			return err
		},
	}
	for name, mode := range map[string]PairingMode{"masking": MaskedChain, "chain": OverlappingChain} {
		p := DistillerPairParams{Rows: 4, Cols: 10, Degree: 2, Mode: mode, Code: bch(5, false), EnrollReps: 25}
		if mode == MaskedChain {
			p.K = 5
		}
		enroll[name] = func(mfg, run *rng.Source) (err error) {
			dist[name], err = EnrollDistillerPairReuse(dist[name], p, mfg, run)
			return err
		}
	}
	for name, ceiling := range enrollAllocCeiling {
		// One source pair per call — the warm-up, AllocsPerRun's own
		// warm-up call and the measured runs — cycling over the seeds.
		// They are built outside the measured calls: the sources are
		// the caller's, not enrollment's.
		const seeds, runs = 8, 40
		srcs := make([]*rng.Source, 0, 2*(seeds+1+runs))
		for i := range seeds + 1 + runs {
			s := uint64(1000 * (i%seeds + 1))
			srcs = append(srcs, rng.New(s), rng.New(s+1))
		}
		next := func() error {
			mfg, run := srcs[0], srcs[1]
			srcs = srcs[2:]
			return enroll[name](mfg, run)
		}
		for range seeds { // warm the carcass and the shared tables
			if err := next(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		var err error
		got := testing.AllocsPerRun(runs, func() {
			if e := next(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got > ceiling {
			t.Errorf("%s: steady-state enrollment allocates %.0f, ceiling %.0f", name, got, ceiling)
		}
	}
}

package device

import (
	"testing"

	"repro/internal/ecc"
	"repro/internal/groupbased"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/tempco"
)

// appTrace runs n App queries and returns the outcome sequence — the
// full observable of one device lifetime, compared bit-for-bit between
// the fresh and reuse enrollment paths.
func appTrace(d Device, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = d.App()
	}
	return out
}

func tracesEqual(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEnrollReuseMatchesFresh pins the device-pool contract for all
// four constructions: enrolling seed B into the carcass of seed A's
// device — after A's device has warmed its scratch caches with queries
// — is bit-identical to a fresh enrollment of seed B (same key, same
// App outcome sequence), preserves device and array pointer identity,
// and resets the query counter.
func TestEnrollReuseMatchesFresh(t *testing.T) {
	const queries = 12
	seedPairs := [][2]uint64{{101, 102}, {201, 202}, {301, 302}}

	t.Run(silicon.NoiseCounter.String(), func(t *testing.T) {
		t.Run("seqpair", func(t *testing.T) {
			p := seqParams()
			var pooled *SeqPairDevice
			for _, seeds := range seedPairs {
				fresh, err := EnrollSeqPair(p, rng.New(seeds[0]), rng.New(seeds[1]))
				if err != nil {
					t.Fatal(err)
				}
				prev := pooled
				pooled, err = EnrollSeqPairReuse(pooled, p, rng.New(seeds[0]), rng.New(seeds[1]))
				if err != nil {
					t.Fatal(err)
				}
				if prev != nil && (pooled != prev || pooled.arr != prev.arr) {
					t.Fatalf("seeds %v: reuse did not preserve device/array identity", seeds)
				}
				if pooled.Queries() != 0 {
					t.Fatalf("seeds %v: reuse left %d queries on the counter", seeds, pooled.Queries())
				}
				if !pooled.TrueKey().Equal(fresh.TrueKey()) {
					t.Fatalf("seeds %v: reuse enrolled a different key", seeds)
				}
				if !tracesEqual(appTrace(fresh, queries), appTrace(pooled, queries)) {
					t.Fatalf("seeds %v: reuse App outcomes diverge from fresh", seeds)
				}
			}
		})

		t.Run("tempco", func(t *testing.T) {
			p := tempco.Params{
				Rows: 8, Cols: 16,
				ThresholdMHz: 0.6,
				TminC:        -20, TmaxC: 80,
				Policy:     tempco.RandomSelection,
				Code:       ecc.MustBCH(ecc.BCHConfig{M: 6, T: 3}),
				EnrollReps: 25,
			}
			var pooled *TempCoDevice
			for _, seeds := range seedPairs {
				fresh, err := EnrollTempCo(p, rng.New(seeds[0]), rng.New(seeds[1]))
				if err != nil {
					t.Fatal(err)
				}
				pooled, err = EnrollTempCoReuse(pooled, p, rng.New(seeds[0]), rng.New(seeds[1]))
				if err != nil {
					t.Fatal(err)
				}
				if !pooled.TrueKey().Equal(fresh.TrueKey()) {
					t.Fatalf("seeds %v: reuse enrolled a different key", seeds)
				}
				// Move the operating point: a readout holding the
				// previous silicon's noise-free frequencies or split
				// diverges immediately.
				fresh.SetEnvironment(silicon.Environment{TempC: 60, VoltageV: 1.2})
				pooled.SetEnvironment(silicon.Environment{TempC: 60, VoltageV: 1.2})
				if !tracesEqual(appTrace(fresh, queries), appTrace(pooled, queries)) {
					t.Fatalf("seeds %v: reuse App outcomes diverge from fresh", seeds)
				}
			}
		})

		t.Run("groupbased", func(t *testing.T) {
			p := groupbased.Params{
				Rows: 8, Cols: 16,
				Degree:       2,
				ThresholdMHz: 0.4,
				Code:         ecc.MustBCH(ecc.BCHConfig{M: 6, T: 3}),
				EnrollReps:   15,
			}
			var pooled *GroupBasedDevice
			for _, seeds := range seedPairs {
				fresh, err := EnrollGroupBased(p, rng.New(seeds[0]), rng.New(seeds[1]))
				if err != nil {
					t.Fatal(err)
				}
				pooled, err = EnrollGroupBasedReuse(pooled, p, rng.New(seeds[0]), rng.New(seeds[1]))
				if err != nil {
					t.Fatal(err)
				}
				if !pooled.TrueKey().Equal(fresh.TrueKey()) {
					t.Fatalf("seeds %v: reuse enrolled a different key", seeds)
				}
				// Exercise the rebind path too: helper rewrite consumes
				// one reconstruction's noise on both sides.
				if err := fresh.WriteHelper(fresh.ReadHelper()); err != nil {
					t.Fatal(err)
				}
				if err := pooled.WriteHelper(pooled.ReadHelper()); err != nil {
					t.Fatal(err)
				}
				if !tracesEqual(appTrace(fresh, queries), appTrace(pooled, queries)) {
					t.Fatalf("seeds %v: reuse App outcomes diverge from fresh", seeds)
				}
			}
		})

		t.Run("distillerpair", func(t *testing.T) {
			for _, mode := range []PairingMode{MaskedChain, OverlappingChain} {
				p := DistillerPairParams{
					Rows: 4, Cols: 10,
					Degree:     2,
					Mode:       mode,
					K:          5,
					Code:       ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3}),
					EnrollReps: 15,
				}
				var pooled *DistillerPairDevice
				for _, seeds := range seedPairs {
					fresh, err := EnrollDistillerPair(p, rng.New(seeds[0]), rng.New(seeds[1]))
					if err != nil {
						t.Fatal(err)
					}
					prev := pooled
					pooled, err = EnrollDistillerPairReuse(pooled, p, rng.New(seeds[0]), rng.New(seeds[1]))
					if err != nil {
						t.Fatal(err)
					}
					if prev != nil && &prev.basePair[0] != &pooled.basePair[0] {
						t.Fatalf("%v seeds %v: reuse rebuilt the architecture-fixed pair list", mode, seeds)
					}
					if !pooled.TrueKey().Equal(fresh.TrueKey()) {
						t.Fatalf("%v seeds %v: reuse enrolled a different key", mode, seeds)
					}
					if !tracesEqual(appTrace(fresh, queries), appTrace(pooled, queries)) {
						t.Fatalf("%v seeds %v: reuse App outcomes diverge from fresh", mode, seeds)
					}
				}
			}
		})
	})
}

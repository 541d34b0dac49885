package device

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/ecc"
	"repro/internal/groupbased"
	"repro/internal/rng"
)

// BenchmarkWriteBindQuery times one reprogrammed-key hypothesis-arm
// round at the device surface: write a helper, bind the predicted key,
// query once. Two helpers differing only in their ECC offset alternate,
// as an attack's arms do. A steady-state round must not allocate; the
// benchmark fails if it does, so a smoke run (-benchtime 1x) checks it.
func BenchmarkWriteBindQuery(b *testing.B) {
	code := ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3})
	gb, err := EnrollGroupBasedReuse(nil, groupbased.Params{
		Rows: 4, Cols: 10,
		Degree:       2,
		ThresholdMHz: 0.5,
		MaxGroupSize: 6,
		Code:         code,
		EnrollReps:   25,
	}, rng.New(42), rng.New(43))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("groupbased", func(b *testing.B) {
		arms := [2]groupbased.Helper{gb.ReadHelper(), gb.ReadHelper()}
		arms[1].Offset.Flip(0)
		benchArmRounds(b, gb, gb.TrueKey(), func(i int) error { return gb.WriteHelper(arms[i]) })
	})
	for _, mode := range []PairingMode{MaskedChain, OverlappingChain} {
		d, err := EnrollDistillerPairReuse(nil, DistillerPairParams{
			Rows: 4, Cols: 10,
			Degree:     2,
			Mode:       mode,
			K:          5,
			Code:       code,
			EnrollReps: 15,
		}, rng.New(42), rng.New(43))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(mode.String(), func(b *testing.B) {
			arms := [2]DistillerPairHelperNVM{d.ReadHelper(), d.ReadHelper()}
			arms[1].Offset.Flip(0)
			benchArmRounds(b, d, d.TrueKey(), func(i int) error { return d.WriteHelper(arms[i]) })
		})
	}
}

func benchArmRounds(b *testing.B, d rebinder, key bitvec.Vector, write func(arm int) error) {
	arm := 0
	round := func() {
		arm ^= 1
		if err := write(arm); err != nil {
			b.Fatal(err)
		}
		d.BindKey(key)
		d.App()
	}
	for i := 0; i < 4; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		b.Fatalf("steady-state round allocates %.1f/op, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		round()
	}
}

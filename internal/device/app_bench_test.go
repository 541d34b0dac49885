package device_test

import (
	"testing"

	"repro/internal/device"
	"repro/internal/ecc"
	"repro/internal/fuzzy"
	"repro/internal/rng"
	"repro/internal/transcript"
)

// BenchmarkDeviceApp times one steady-state oracle query (one device
// App) on each canonical device, enrolled through the transcript
// harness's device table at seed 1 with its enrolled helper in place,
// and on the E12 fuzzy-extractor device, plain and robust. A
// steady-state query must not allocate; the benchmark fails if it
// does, so a smoke run (-benchtime 1x) checks it.
func BenchmarkDeviceApp(b *testing.B) {
	transcriptQuery := func(attack string) func() (func(), error) {
		return func() (func(), error) {
			t, _, err := transcript.Enroll(transcript.Spec{Attack: attack, Seed: 1}, nil)
			if err != nil {
				return nil, err
			}
			return func() { t.Query() }, nil
		}
	}
	fuzzyQuery := func(robust bool) func() (func(), error) {
		return func() (func(), error) {
			d, err := device.EnrollFuzzy(device.FuzzyParams{
				Rows: 8, Cols: 16,
				Extractor:  fuzzy.Params{Code: ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3}), Robust: robust},
				EnrollReps: 20,
			}, rng.New(1), rng.New(2))
			if err != nil {
				return nil, err
			}
			return func() { d.App() }, nil
		}
	}
	for _, c := range []struct {
		name  string
		query func() (func(), error)
	}{
		{"seqpair", transcriptQuery("seqpair")},
		{"tempco", transcriptQuery("tempco")},
		{"groupbased", transcriptQuery("groupbased")},
		{"masked-chain", transcriptQuery("masking")},
		{"overlapping-chain", transcriptQuery("chain")},
		{"fuzzy", fuzzyQuery(false)},
		{"fuzzy-robust", fuzzyQuery(true)},
	} {
		b.Run(c.name, func(b *testing.B) {
			query, err := c.query()
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				query()
			}
			if allocs := testing.AllocsPerRun(20, query); allocs != 0 {
				b.Fatalf("steady-state App allocates %.1f/op, want 0", allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for b.Loop() {
				query()
			}
		})
	}
}

package device_test

import (
	"testing"

	"repro/internal/transcript"
)

// BenchmarkDeviceApp times one steady-state oracle query (one device
// App) on each canonical device, enrolled through the transcript
// harness's device table at seed 1 with its enrolled helper in place.
// A steady-state query must not allocate; the benchmark fails if it
// does, so a smoke run (-benchtime 1x) checks it.
func BenchmarkDeviceApp(b *testing.B) {
	for _, c := range []struct{ name, attack string }{
		{"seqpair", "seqpair"},
		{"tempco", "tempco"},
		{"groupbased", "groupbased"},
		{"masked-chain", "masking"},
		{"overlapping-chain", "chain"},
	} {
		b.Run(c.name, func(b *testing.B) {
			t, _, err := transcript.Enroll(transcript.Spec{Attack: c.attack, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			query := func() { t.Query() }
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

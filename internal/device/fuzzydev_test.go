package device

import (
	"testing"

	"repro/internal/ecc"
	"repro/internal/fuzzy"
	"repro/internal/pairing"
	"repro/internal/rng"
	"repro/internal/silicon"
)

// denseFuzzyRead is the fuzzy device's read of the next sweep of nm
// from a full noisy measurement: every oscillator measured
// (MeasureIntoWith) and every chain bit compared (pairing.Responses),
// into a fresh sketch.
func denseFuzzyRead(d *FuzzyDevice, nm *silicon.Noise) *ecc.Sketch {
	f := d.arr.MeasureIntoWith(make([]float64, d.arr.N()), d.env, nm)
	resp := pairing.Responses(f, d.pairs)
	sk := new(ecc.Sketch)
	sk.Size(d.params.Extractor.Code, resp.Len())
	sk.Stream().PutAt(0, resp)
	return sk
}

// fuzzyOutcome is what a filled sketch yields: the extractor's key and
// error, and the number of bit errors the decoder corrects against the
// device's helper word, which differs between two streams that differ
// in a correctable bit.
type fuzzyOutcome struct {
	key       fuzzy.Key
	err       error
	corrected int
}

func outcomeOf(d *FuzzyDevice, sk *ecc.Sketch) fuzzyOutcome {
	key, err := fuzzy.Reconstruct(sk, d.params.Extractor, d.nvm)
	_, corrected, _ := sk.Reproduce(d.nvm.W)
	return fuzzyOutcome{key, err, corrected}
}

// TestFuzzyAppMatchesDenseReference runs query sequences on the fuzzy
// device, plain and robust, at σ ∈ {0.05, 0.3, 0.5} MHz, and checks each
// App and the reconstruction behind it against the dense reference on
// the same sweep, and the bit errors the decoder corrects, which count
// every correctable flip the noise causes. Beside the honest helper it
// writes one with t bits of every block flipped, which puts the decoder
// at its radius: one more bit error in a block fails the
// reconstruction. A readout that wrongly treats a comparison as
// noise-free therefore shows as a flip or a failure the reference has
// and it lacks.
func TestFuzzyAppMatchesDenseReference(t *testing.T) {
	code := ecc.MustBCH(ecc.BCHConfig{M: 5, T: 3})
	failures, queries, noisy, quiet := 0, 0, 0, 0
	for _, robust := range []bool{false, true} {
		for _, sigma := range []float64{0.05, 0.3, 0.5} {
			p := FuzzyParams{Rows: 8, Cols: 16, Extractor: fuzzy.Params{Code: code, Robust: robust}, EnrollReps: 20}
			d, err := EnrollFuzzy(p, rng.New(51), rng.New(52))
			if err != nil {
				t.Fatal(err)
			}
			// Query the same silicon at σ: manufacturing does not draw
			// on the noise level.
			cfg := silicon.DefaultConfig(p.Rows, p.Cols)
			cfg.NoiseSigmaMHz = sigma
			d.arr = silicon.NewArray(cfg, rng.New(51))
			d.noise = *d.arr.NewNoise(rng.New(53))
			honest := d.ReadHelper()
			edge := d.ReadHelper()
			for at := 0; at < edge.W.Len(); at += code.N() {
				for i := range code.T() {
					edge.W.Flip(at + i)
				}
			}
			for _, h := range []fuzzy.Helper{honest, edge, honest} {
				if err := d.WriteHelper(h); err != nil {
					t.Fatal(err)
				}
				for q := range 60 {
					ref := d.noise
					want := outcomeOf(d, denseFuzzyRead(d, &ref))
					ok := d.App()
					// The sketch still holds the stream App read.
					if got := outcomeOf(d, &d.read.sketch); got != want {
						t.Fatalf("robust=%v σ=%v query %d: reconstruction (%v, %d corrected, key %x), dense reference (%v, %d corrected, key %x)",
							robust, sigma, q, got.err, got.corrected, got.key[:4], want.err, want.corrected, want.key[:4])
					}
					if wantOK := want.err == nil && want.key == d.key; ok != wantOK {
						t.Fatalf("robust=%v σ=%v query %d: App %v, dense reference %v", robust, sigma, q, ok, wantOK)
					}
					if d.noise != ref {
						t.Fatalf("robust=%v σ=%v query %d: App left the noise at %+v, reference at %+v", robust, sigma, q, d.noise, ref)
					}
					if want.err != nil {
						failures++
					}
					queries++
					noisy += d.read.ro.Noisy()
					quiet += d.arr.N() - d.read.ro.Noisy()
				}
			}
		}
	}
	// Both outcomes, and both noisy and noise-free oscillators, must
	// occur, or the comparison shows nothing.
	if failures == 0 || failures == queries || noisy == 0 || quiet == 0 {
		t.Fatalf("%d of %d reconstructions failed, %d noisy and %d quiet oscillator reads; want some of each",
			failures, queries, noisy, quiet)
	}
}

// Measurement noise. Every frequency measurement adds a standard
// Gaussian variate per oscillator scaled by Config.NoiseSigmaMHz, and
// each variate is keyed by the identity triple (noise seed, measurement
// sweep counter, oscillator index) through the counter-block generator
// of rng.BlockNorm. There is no stream to keep aligned, so a subset
// measurement draws only the variates it needs: MeasureSparse the k
// listed ones, and a device's Readout only those that can change a
// comparison (see Readout). Devices are independent by key, and
// per-sweep noise is embarrassingly parallel. Transcripts are pinned by
// the goldens under testdata/transcripts/.
//
// An enrollment average of reps sweeps is drawn from its exact law: the
// noise is unquantized and independent across sweeps and oscillators,
// so the mean of reps sweeps is N(TrueFreq, σ²/reps) per oscillator,
// and Array.MeasureAveraged returns one sweep scaled by σ/√reps. It
// still reserves all reps sweep indices, so the noise of every later
// measurement is the one a sweep-by-sweep average would have left, and
// at reps = 1 it is bit-identical to one dense sweep (σ/√1 = σ).
//
// A Noise carries the per-oracle sweep counter and is NOT safe for
// concurrent use; each device constructs its own via Array.NewNoise.
package silicon

import (
	"fmt"

	"repro/internal/rng"
)

// NoiseKind names the measurement-noise contract. It is single-valued:
// NoiseCounter (the zero value) is the only model, and Config.Validate
// rejects anything else. The type survives so configs and device
// parameters that name the model keep compiling.
type NoiseKind int

// NoiseCounter keys each variate by (seed, sweep, oscillator).
const NoiseCounter NoiseKind = 0

// String implements fmt.Stringer.
func (k NoiseKind) String() string {
	if k == NoiseCounter {
		return "counter"
	}
	return fmt.Sprintf("NoiseKind(%d)", int(k))
}

// CheckNoise validates a noise-model name from a task option or wire
// spec. Empty and "counter" both name the counter model; "stream"
// names the sequential-stream model that no longer exists and gets an
// error saying so, so an old spec fails loudly instead of silently
// running under different noise.
func CheckNoise(name string) error {
	switch name {
	case "", "counter":
		return nil
	case "stream":
		return fmt.Errorf("silicon: the stream noise model was removed; only \"counter\" is supported")
	}
	return fmt.Errorf("silicon: unknown noise model %q (only \"counter\" is supported)", name)
}

// Noise derives every variate from (key, sweep, index) via
// rng.BlockNorm; its only mutable state is the sweep counter. Each
// Fill* call is one measurement sweep, so two sweeps never share noise.
type Noise struct {
	key   uint64
	sweep uint64
}

// NewNoise builds the per-oracle noise state: its key is src's next
// Uint64, and src is never touched again.
func (a *Array) NewNoise(src *rng.Source) *Noise { return &Noise{key: src.Uint64()} }

// Reserve claims the next measurement sweep without drawing it: the
// receiver moves past the sweep, and the returned copy's first Fill*
// draws exactly what the receiver's next Fill* would have drawn. A
// device uses it to defer a reconstruction to a later point in its
// query sequence without shifting the noise of the queries in between.
func (nm *Noise) Reserve() Noise {
	r := *nm
	nm.sweep++
	return r
}

// FillAll writes one sweep's variate per oscillator (len(dst) = N).
func (nm *Noise) FillAll(dst []float64) {
	sw := rng.NewBlockSweep(nm.key, nm.sweep)
	nm.sweep++
	sw.FillNorm(dst)
}

// FillIndices writes one sweep's variates of the listed oscillators
// into dst (len(dst) = N; idxs ascending); entries outside idxs are
// untouched. Each value equals what FillAll would write at that index
// for the same sweep.
func (nm *Noise) FillIndices(dst []float64, idxs []int) {
	sw := rng.NewBlockSweep(nm.key, nm.sweep)
	nm.sweep++
	// A subset that is in fact the whole array (seqpair and tempco
	// helpers reference every oscillator) takes the branch-free bulk
	// fill; values are identical either way.
	if len(idxs) == len(dst) {
		sw.FillNorm(dst)
		return
	}
	for j := 0; j < len(idxs); j++ {
		i := idxs[j]
		// Neighbor oscillators dominate the helper-referenced subsets
		// (chain pairings), so an even/odd run shares one polar block
		// exactly as the dense fill does.
		if i&1 == 0 && j+1 < len(idxs) && idxs[j+1] == i+1 {
			dst[i], dst[i+1] = sw.NormPair(uint64(i) >> 1)
			j++
			continue
		}
		dst[i] = sw.Norm(uint64(i))
	}
}

package device

import (
	"fmt"

	"repro/internal/ecc"
	"repro/internal/fuzzy"
	"repro/internal/pairing"
	"repro/internal/rng"
	"repro/internal/silicon"
)

// FuzzyDevice is the reference construction of the paper's Fig. 7: a
// plain RO response (overlapping neighbor chain) fed into a fuzzy
// extractor. It serves as the control group for experiment E12 — the
// same manipulation surface, but no usable failure-rate side channel.
type FuzzyDevice struct {
	base
	params FuzzyParams
	pairs  []pairing.Pair
	nvm    fuzzy.Helper
	key    fuzzy.Key
	// read is the reusable reconstruction state of the fixed chain,
	// its sketch sized at enrollment; per-device, not
	// concurrency-safe.
	read pairRead
}

// FuzzyParams configures a fuzzy-extractor device.
type FuzzyParams struct {
	Rows, Cols int
	Extractor  fuzzy.Params
	EnrollReps int
}

// EnrollFuzzy manufactures and enrolls a device.
func EnrollFuzzy(p FuzzyParams, srcMfg, srcRun *rng.Source) (*FuzzyDevice, error) {
	if p.EnrollReps < 1 {
		return nil, fmt.Errorf("device: enrollment reps %d < 1", p.EnrollReps)
	}
	d := &FuzzyDevice{params: p, pairs: pairing.ChainPairs(p.Rows, p.Cols, false)}
	env := d.manufacture(silicon.DefaultConfig(p.Rows, p.Cols), srcMfg, srcRun)
	f := d.arr.MeasureAveraged(env, &d.noise, p.EnrollReps)
	resp := pairing.Responses(f, d.pairs)
	h, key, err := fuzzy.Enroll(resp, p.Extractor, srcRun)
	if err != nil {
		return nil, err
	}
	d.nvm, d.key = h, key
	d.read.sketch.Size(p.Extractor.Code, len(d.pairs))
	return d, nil
}

// ReadHelper returns a deep copy of the helper NVM.
func (d *FuzzyDevice) ReadHelper() fuzzy.Helper {
	return fuzzy.Helper{W: d.nvm.W.Clone(), Tag: append([]byte(nil), d.nvm.Tag...)}
}

// WriteHelper overwrites the helper NVM, copying into the device-owned
// buffers in place.
func (d *FuzzyDevice) WriteHelper(h fuzzy.Helper) error {
	if h.W.Len() != d.nvm.W.Len() {
		return fmt.Errorf("device: helper length %d, want %d", h.W.Len(), d.nvm.W.Len())
	}
	d.nvm = fuzzy.Helper{W: copyOffset(d.nvm.W, h.W), Tag: append(d.nvm.Tag[:0], h.Tag...)}
	return nil
}

// App reconstructs and compares against the enrolled key: a readout of
// the chain's oscillators into the device's sketch, then the fuzzy
// extractor's reproduce and hash, allocation-free in steady state.
func (d *FuzzyDevice) App() bool {
	d.addQuery()
	d.read.fill(d.arr, d.env, &d.noise, d.pairs)
	got, err := fuzzy.Reconstruct(&d.read.sketch, d.params.Extractor, d.nvm)
	return err == nil && got == d.key
}

// TrueKey returns the enrolled key (evaluation-only).
func (d *FuzzyDevice) TrueKey() fuzzy.Key { return d.key }

// Code exposes the ECC of the extractor (public specification).
func (d *FuzzyDevice) Code() ecc.Code { return d.params.Extractor.Code }

package device

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/distiller"
	"repro/internal/ecc"
	"repro/internal/pairing"
	"repro/internal/rng"
	"repro/internal/silicon"
)

// Reconstruction failures are per-query events on attack arms whose
// manipulated helpers push the ECC past its radius; sentinel errors keep
// that hot path allocation-free.
var (
	errECCFailure     = errors.New("device: ECC failure")
	errOffsetMismatch = errors.New("device: offset/stream mismatch")
)

// PairingMode selects the pair-selection scheme combined with the
// entropy distiller (paper §VI-D considers both).
type PairingMode int

const (
	// MaskedChain is 1-out-of-k masking applied to a disjoint neighbor
	// chain (Fig. 6b).
	MaskedChain PairingMode = iota
	// OverlappingChain is the N-1-pair overlapping neighbor chain
	// (Fig. 6c).
	OverlappingChain
)

// String implements fmt.Stringer.
func (m PairingMode) String() string {
	switch m {
	case MaskedChain:
		return "masked-chain"
	case OverlappingChain:
		return "overlapping-chain"
	}
	return fmt.Sprintf("PairingMode(%d)", int(m))
}

// DistillerPairParams configures a distiller + pairing device.
type DistillerPairParams struct {
	Rows, Cols int
	Degree     int
	Mode       PairingMode
	// K is the masking group size (MaskedChain only).
	K          int
	Code       ecc.Code
	EnrollReps int
	// Noise names the silicon measurement-noise model. Single-valued:
	// the zero value silicon.NoiseCounter is the only accepted model.
	Noise silicon.NoiseKind
}

// DistillerPairHelperNVM is the complete helper NVM of the construction:
// distiller coefficients, the masking selections (MaskedChain mode), and
// the ECC offset.
type DistillerPairHelperNVM struct {
	Poly    distiller.Poly2D
	Masking pairing.MaskingHelper // zero value in OverlappingChain mode
	Offset  bitvec.Vector
}

// DistillerPairDevice runs an entropy distiller in front of a classic
// pairing scheme — the DAC 2013 distiller proposal composed per §VI-D.
// Like GroupBasedDevice it uses the reprogrammed-key observable.
type DistillerPairDevice struct {
	base
	arr      *silicon.Array
	params   DistillerPairParams
	basePair []pairing.Pair // fixed by the architecture, not helper data
	nvm      DistillerPairHelperNVM
	enrolled bitvec.Vector
	bind     binding
	src      *rng.Source
	// noise is the per-oracle measurement-noise state.
	noise   *silicon.Noise
	scratch distillerScratch
}

// distillerScratch is the device's reusable reconstruction state:
// the distiller surface evaluated on the grid, the resolved pair list,
// the readout and the code-offset sketch. Per-device, not
// concurrency-safe.
type distillerScratch struct {
	helperValid bool
	grid        []float64
	sel         []pairing.Pair
	selBuf      []pairing.Pair
	selErr      error
	// ro reads the distilled residuals (frequency minus the grid) and
	// draws noise only where it can change a pair's comparison; it
	// compares no pair while the masking selection is invalid.
	ro     silicon.Readout
	sketch ecc.Sketch
	// content fingerprints of the helper-derived caches: a helper write
	// that changes only the ECC offset (an attack arm's hypothesis sweep)
	// skips the grid evaluation and masking resolution entirely.
	gridValid    bool
	lastP        int
	lastBeta     []float64
	selValid     bool
	lastK        int
	lastSelected []int
}

// refreshScratch rebuilds the helper-derived caches from the current NVM,
// skipping any cache whose helper content is unchanged since the last
// build (outcomes are pure functions of that content).
func (d *DistillerPairDevice) refreshScratch() {
	sc := &d.scratch
	if !sc.gridValid || d.nvm.Poly.P != sc.lastP || !slices.Equal(sc.lastBeta, d.nvm.Poly.Beta) {
		sc.grid = d.nvm.Poly.EvalGrid(d.params.Rows, d.params.Cols, sc.grid)
		sc.lastP = d.nvm.Poly.P
		sc.lastBeta = append(sc.lastBeta[:0], d.nvm.Poly.Beta...)
		sc.gridValid = true
		sc.ro.SetOffsets(sc.grid)
	}
	switch d.params.Mode {
	case MaskedChain:
		if !sc.selValid || d.nvm.Masking.K != sc.lastK || !slices.Equal(sc.lastSelected, d.nvm.Masking.Selected) {
			sel, err := d.nvm.Masking.SelectedPairsInto(sc.selBuf, d.basePair)
			sc.sel, sc.selErr = sel, err
			if err == nil {
				sc.selBuf = sel
			}
			sc.lastK = d.nvm.Masking.K
			sc.lastSelected = append(sc.lastSelected[:0], d.nvm.Masking.Selected...)
			sc.selValid = true
			sc.ro.Invalidate()
		}
	default:
		sc.sel, sc.selErr = d.basePair, nil
	}
	sc.sketch.Size(d.params.Code, len(sc.sel))
	sc.helperValid = true
}

// EnrollDistillerPair manufactures and enrolls a device.
func EnrollDistillerPair(p DistillerPairParams, srcMfg, srcRun *rng.Source) (*DistillerPairDevice, error) {
	return EnrollDistillerPairReuse(nil, p, srcMfg, srcRun)
}

// EnrollDistillerPairReuse is EnrollDistillerPair adopting a previously
// enrolled device's backing storage (see EnrollSeqPairReuse for the
// device-pool contract): bit-identical to a fresh enrollment, prev may
// be nil, and prev must be discarded by the caller — even on error.
func EnrollDistillerPairReuse(prev *DistillerPairDevice, p DistillerPairParams, srcMfg, srcRun *rng.Source) (*DistillerPairDevice, error) {
	if p.Code == nil || p.EnrollReps < 1 {
		return nil, fmt.Errorf("device: invalid distiller-pair params")
	}
	cfg := silicon.DefaultConfig(p.Rows, p.Cols)
	cfg.Noise = p.Noise
	var prevArr *silicon.Array
	if prev != nil {
		prevArr = prev.arr
	}
	arr := prevArr.Remanufactured(cfg, srcMfg)
	env := arr.Config().NominalEnv()
	noise := arr.NewNoise(srcRun)
	f := arr.MeasureAveragedInto(make([]float64, arr.N()), make([]float64, 2*arr.N()), env, noise, p.EnrollReps)
	poly, err := distiller.Fit(p.Rows, p.Cols, f, p.Degree)
	if err != nil {
		return nil, err
	}
	resid := distiller.Distill(p.Rows, p.Cols, f, poly)

	d := prev
	if d == nil {
		d = &DistillerPairDevice{}
	}
	// basePair is fixed by the architecture (geometry and mode), not by
	// the silicon instance — keep prev's list when those match. The
	// comparison is field-wise: params holds an ecc.Code interface whose
	// dynamic type need not be comparable.
	sameBase := prev != nil && d.basePair != nil &&
		d.params.Rows == p.Rows && d.params.Cols == p.Cols && d.params.Mode == p.Mode
	d.base.reset(env)
	d.arr = arr
	d.params = p
	d.src = srcRun
	d.noise = noise
	var mask pairing.MaskingHelper
	switch p.Mode {
	case MaskedChain:
		if !sameBase {
			d.basePair = pairing.ChainPairs(p.Rows, p.Cols, true)
		}
		mask, err = pairing.EnrollMasking(resid, d.basePair, p.K)
		if err != nil {
			return nil, err
		}
	case OverlappingChain:
		if !sameBase {
			d.basePair = pairing.ChainPairs(p.Rows, p.Cols, false)
		}
	default:
		return nil, fmt.Errorf("device: unknown pairing mode %v", p.Mode)
	}
	resp, err := d.response(resid, mask)
	if err != nil {
		return nil, err
	}
	sk := &d.scratch.sketch
	sk.Size(p.Code, resp.Len())
	sk.Stream().PutAt(0, resp)
	off := sk.Enroll(srcRun).Clone()
	d.nvm = DistillerPairHelperNVM{Poly: poly, Masking: mask, Offset: off}
	d.enrolled = resp
	d.bind.reset(resp)
	d.scratch.helperValid = false
	d.scratch.ro.Reset()
	return d, nil
}

// response evaluates the construction's response bits for a residual
// snapshot under the given masking helper.
func (d *DistillerPairDevice) response(resid []float64, mask pairing.MaskingHelper) (bitvec.Vector, error) {
	switch d.params.Mode {
	case MaskedChain:
		sel, err := mask.SelectedPairs(d.basePair)
		if err != nil {
			return bitvec.Vector{}, err
		}
		return pairing.Responses(resid, sel), nil
	default:
		return pairing.Responses(resid, d.basePair), nil
	}
}

// BasePairs returns the architecture's fixed pair list (public).
func (d *DistillerPairDevice) BasePairs() []pairing.Pair {
	return append([]pairing.Pair(nil), d.basePair...)
}

// ReadHelper returns a deep copy of the helper NVM.
func (d *DistillerPairDevice) ReadHelper() DistillerPairHelperNVM {
	return DistillerPairHelperNVM{
		Poly:    clonePoly(d.nvm.Poly),
		Masking: pairing.MaskingHelper{K: d.nvm.Masking.K, Selected: append([]int(nil), d.nvm.Masking.Selected...)},
		Offset:  d.nvm.Offset.Clone(),
	}
}

// HelperView returns the helper NVM sharing the device's storage — the
// read-only fast path for marshaling consumers. Callers must not mutate
// it or retain it across a WriteHelper.
func (d *DistillerPairDevice) HelperView() DistillerPairHelperNVM { return d.nvm }

// WriteHelper overwrites the helper NVM after structural validation and
// re-binds the application key through ReprovisionKey, as in
// GroupBasedDevice.
func (d *DistillerPairDevice) WriteHelper(h DistillerPairHelperNVM) error {
	if d.params.Mode == MaskedChain {
		if err := h.Masking.Validate(d.basePair); err != nil {
			return err
		}
	}
	if h.Offset.Len() != d.nvm.Offset.Len() {
		return fmt.Errorf("device: offset length %d, want %d", h.Offset.Len(), d.nvm.Offset.Len())
	}
	// In-place copies into the device-owned NVM buffers; see
	// GroupBasedDevice.WriteHelper for the aliasing argument.
	d.nvm = DistillerPairHelperNVM{
		Poly:    distiller.Poly2D{P: h.Poly.P, Beta: append(d.nvm.Poly.Beta[:0], h.Poly.Beta...)},
		Masking: pairing.MaskingHelper{K: h.Masking.K, Selected: append(d.nvm.Masking.Selected[:0], h.Masking.Selected...)},
		Offset:  copyOffset(d.nvm.Offset, h.Offset),
	}
	d.scratch.helperValid = false
	d.bumpNVM()
	d.ReprovisionKey()
	return nil
}

// ReprovisionKey re-binds the application to whatever key the CURRENT
// helper reconstructs, exactly as a helper write does (see
// GroupBasedDevice.ReprovisionKey for the contract). Every helper this
// device accepts is measured before anything can fail, so the sweep is
// always reserved; the helper-derived caches are rebuilt by the
// reconstruction that first needs them.
func (d *DistillerPairDevice) ReprovisionKey() { d.bind.reserve(d.noise, d.env) }

// BindKey binds the application to a predicted key.
func (d *DistillerPairDevice) BindKey(key bitvec.Vector) { d.bind.set(key, key.Len()) }

// reconstructScratch regenerates the key at env with noise nm in the
// scratch sketch: on success the first respLen bits of the
// sketch-owned recovered stream hold the key.
func (d *DistillerPairDevice) reconstructScratch(env silicon.Environment, nm *silicon.Noise) (recovered bitvec.Vector, respLen int, err error) {
	sc := &d.scratch
	if !sc.helperValid {
		d.refreshScratch()
	}
	if sc.ro.Stale(d.arr, env) {
		if sc.selErr == nil {
			for _, p := range sc.sel {
				sc.ro.Compare(p.A, p.B)
			}
		}
		sc.ro.Split()
	}
	resid := sc.ro.Measure(nm)
	if sc.selErr != nil {
		return bitvec.Vector{}, 0, sc.selErr
	}
	if sc.sketch.Len() != d.nvm.Offset.Len() {
		return bitvec.Vector{}, 0, errOffsetMismatch
	}
	stream := sc.sketch.Stream()
	for i, p := range sc.sel {
		if pairing.ResponseBit(resid, p) {
			stream.Set(i, true)
		}
	}
	recovered, _, ok := sc.sketch.Reproduce(d.nvm.Offset)
	if !ok {
		return bitvec.Vector{}, 0, errECCFailure
	}
	return recovered, len(sc.sel), nil
}

// App reconstructs and compares against the bound key (settling a
// reserved re-binding first), running in the device's scratch buffers.
func (d *DistillerPairDevice) App() bool {
	d.addQuery()
	if env, nm, ok := d.bind.due(); ok {
		recovered, n, err := d.reconstructScratch(env, nm)
		d.bind.settle(recovered, n, err)
	}
	recovered, n, err := d.reconstructScratch(d.env, d.noise)
	key := d.bind.key
	return err == nil && n > 0 && key.Len() == n && recovered.HasPrefix(key)
}

// TrueKey returns the original enrolled key (evaluation-only).
func (d *DistillerPairDevice) TrueKey() bitvec.Vector { return d.enrolled.Clone() }

// Params exposes the public device specification.
func (d *DistillerPairDevice) Params() DistillerPairParams { return d.params }

// Array exposes the silicon for ground-truth evaluation only.
func (d *DistillerPairDevice) Array() *silicon.Array { return d.arr }
